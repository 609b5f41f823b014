// Package obs is the observability layer of the serving stack: a
// dependency-free metrics registry (counters, gauges, histograms with label
// support and Prometheus text exposition), a structured JSON/text logger, and
// lightweight trace spans carried through context.Context.
//
// The paper's whole premise is that tuning decisions must be driven by
// measured behavior; this package applies the same discipline to the serving
// system itself. Every component of the stack — HTTP handlers, the response
// cache, singleflight coalescing, the measure-mode admission queue, the WAL
// sink, the background retrainer — records into one Registry, and a scrape of
// /metrics answers the operational questions a flat counter map cannot:
// latency *distributions* per endpoint, cache hit *ratios*, and which
// pipeline stage a slow p99 actually spent its time in.
//
// Design constraints, in order:
//
//   - Hot-path cost. A cached tune answer is ~33µs end to end; instrumenting
//     it must stay in the noise. Handles (Counter, Gauge, Histogram) are
//     resolved once at wiring time and recording is one or two atomic
//     operations — no map lookups, no locks, no allocation.
//   - Race safety. Values are atomics; the registry's maps are guarded for
//     the registration and scrape paths only. Scraping while serving is safe
//     and lock-free for recorders.
//   - No dependencies. The exposition format is the stable Prometheus text
//     format (version 0.0.4), hand-rendered; nothing outside the standard
//     library is imported.
//
// Registration is idempotent: registering the same name with the same type
// and label set returns the existing family, so independently wired
// components (server, middleware, retrainer) can share one Registry without
// coordinating. Re-registering a name with a different type or label set
// panics — that is a programming error, not a runtime condition.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType says how a family is recorded and exposed.
type MetricType int

const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// LatencyBuckets are the fixed duration buckets (seconds) every latency
// histogram in the serving stack shares, spanning the ~10µs cached-tune hot
// path through multi-second measure-mode requests. Fixed, shared boundaries
// keep every stage and endpoint histogram directly comparable and make the
// exposition format stable enough to pin with a golden file.
var LatencyBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families keyed by name. The zero value is not usable;
// create with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one named metric with a fixed type and label schema, holding one
// series per distinct label-value combination.
type family struct {
	name    string
	help    string
	typ     MetricType
	labels  []string
	buckets []float64 // histograms only

	// fn, when set, backs a single-series metric whose value is computed at
	// scrape time (cache sizes, queue depths, runtime stats). Func metrics
	// have no series map; the latest registration's fn wins.
	fn func() float64

	mu     sync.RWMutex
	series map[string]*series
}

// series is one label-value combination's data. Exactly one of (val) or
// (hist) is live depending on the family type.
type series struct {
	labelVals []string
	val       atomicFloat
	hist      *histogramData
	// fn, when set (CounterVec.Func), computes the value at scrape time in
	// place of val. Guarded by the family lock.
	fn func() float64
}

// histogramData is the storage behind a Histogram: per-bucket counts (not
// cumulative — cumulated at expose time so Observe is one atomic add), a
// total count and a float sum.
type histogramData struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomicFloat
}

// atomicFloat is a float64 with atomic Add/Set/Load via bit-casting.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) Store(v float64) {
	f.bits.Store(math.Float64bits(v))
}
func (f *atomicFloat) Add(delta float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// labelSep joins label values into a series key; 0x1f (unit separator) never
// appears in sane label values, and a collision would only merge two series,
// never corrupt memory.
const labelSep = "\x1f"

// register returns the family for name, creating it on first use. The type,
// label names and bucket boundaries must match any previous registration.
func (r *Registry) register(name, help string, typ MetricType, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v%v, was %v%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  labels,
		buckets: buckets,
		series:  make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get returns the series for the label values, creating it on first use.
func (f *family) get(labelVals []string) *series {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label value(s), got %d",
			f.name, len(f.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, labelSep)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s = &series{labelVals: append([]string(nil), labelVals...)}
	if f.typ == TypeHistogram {
		s.hist = &histogramData{
			bounds: f.buckets,
			counts: make([]atomic.Uint64, len(f.buckets)+1),
		}
	}
	f.series[key] = s
	return s
}

// ---------------------------------------------------------------------------
// Handles

// Counter is a monotonically increasing value. The handle is resolved once;
// Inc/Add are single atomic operations. A nil *Counter is a safe no-op, so
// optional instrumentation needs no branches at the call site.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (must be >= 0 for the value to stay meaningful).
func (c *Counter) Add(delta float64) {
	if c == nil {
		return
	}
	c.s.val.Add(delta)
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.s.val.Load()
}

// Gauge is a value that goes up and down. A nil *Gauge is a safe no-op.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.val.Store(v)
}

// Add adjusts the value by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	g.s.val.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.s.val.Load()
}

// Histogram accumulates observations into fixed buckets. A nil *Histogram is
// a safe no-op.
type Histogram struct{ h *histogramData }

// Observe records one value: one atomic add into its bucket, one into the
// count, one CAS into the sum.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	d := h.h
	i := sort.SearchFloat64s(d.bounds, v) // first bound >= v (le semantics)
	d.counts[i].Add(1)
	d.count.Add(1)
	d.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.h.sum.Load()
}

// ---------------------------------------------------------------------------
// Vectors (labeled families)

// CounterVec is a counter family with labels; With resolves one series.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first use).
func (v *CounterVec) With(labelVals ...string) *Counter {
	return &Counter{s: v.f.get(labelVals)}
}

// Func backs the series for the given label values with fn, computed at
// scrape time like CounterFunc: one labelled family can expose several
// live counts. The latest registration's fn wins.
func (v *CounterVec) Func(fn func() float64, labelVals ...string) {
	s := v.f.get(labelVals)
	v.f.mu.Lock()
	s.fn = fn
	v.f.mu.Unlock()
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	return &Gauge{s: v.f.get(labelVals)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	return &Histogram{h: v.f.get(labelVals).hist}
}

// ---------------------------------------------------------------------------
// Registration

// Counter registers (or finds) an unlabeled counter and returns its handle.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, TypeCounter, nil, nil)
	return &Counter{s: f.get(nil)}
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, TypeCounter, labels, nil)}
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, TypeGauge, nil, nil)
	return &Gauge{s: f.get(nil)}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, TypeGauge, labels, nil)}
}

// Histogram registers an unlabeled histogram with the given bucket upper
// bounds (must be sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, TypeHistogram, nil, buckets)
	return &Histogram{h: f.get(nil).hist}
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, TypeHistogram, labels, buckets)}
}

// GaugeFunc registers a gauge whose value is computed at scrape time — cache
// sizes, queue depths, goroutine counts. The latest registration's fn wins,
// so a reloaded component can re-point its gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, TypeGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// CounterFunc registers a counter whose value is computed at scrape time
// (e.g. cumulative GC pause seconds read from runtime stats).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, TypeCounter, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Lookup (tests, legacy surfaces)

// Value returns the current value of one series (counter or gauge; for
// histograms it returns the sum). Unknown names or label sets return 0 —
// lookups are a read-only convenience for tests and legacy bridges, never a
// failure path.
func (r *Registry) Value(name string, labelVals ...string) float64 {
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	f.mu.RLock()
	if f.fn != nil {
		fn := f.fn
		f.mu.RUnlock()
		return fn()
	}
	s, ok := f.series[strings.Join(labelVals, labelSep)]
	var fn func() float64
	if ok {
		fn = s.fn
	}
	f.mu.RUnlock()
	switch {
	case !ok:
		return 0
	case fn != nil:
		return fn()
	case f.typ == TypeHistogram:
		return s.hist.sum.Load()
	}
	return s.val.Load()
}

// Sum returns the sum of one family's value across all its series (histogram
// families sum their _sum fields). Unknown names return 0.
func (r *Registry) Sum(name string) float64 {
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.fn != nil {
		return f.fn()
	}
	total := 0.0
	for _, s := range f.series {
		switch {
		case s.fn != nil:
			total += s.fn()
		case f.typ == TypeHistogram:
			total += s.hist.sum.Load()
		default:
			total += s.val.Load()
		}
	}
	return total
}

// HistogramCount returns the observation count of one histogram series.
func (r *Registry) HistogramCount(name string, labelVals ...string) uint64 {
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok || f.typ != TypeHistogram {
		return 0
	}
	f.mu.RLock()
	s, ok := f.series[strings.Join(labelVals, labelSep)]
	f.mu.RUnlock()
	if !ok {
		return 0
	}
	return s.hist.count.Load()
}
