package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestExpositionGolden pins the full Prometheus text output — family
// ordering, HELP/TYPE lines, label rendering, cumulative buckets, escaping —
// against a golden file. Regenerate with: go test ./internal/obs -run Golden -update
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_requests_total", "Total requests.").Add(3)
	cv := r.CounterVec("demo_hits_total", "Hits by kind.", "kind")
	cv.With("cache").Add(7)
	cv.With("origin").Inc()
	r.Gauge("demo_queue_depth", "Items queued.").Set(2)
	gv := r.GaugeVec("demo_tau", "Kendall tau by model.", "model")
	gv.With("candidate").Set(0.62)
	gv.With("incumbent").Set(0.57)
	h := r.Histogram("demo_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1})
	for _, v := range []float64{0.0004, 0.002, 0.002, 0.05, 3} {
		h.Observe(v)
	}
	hv := r.HistogramVec("demo_stage_seconds", "Stage latency.", []float64{0.01, 0.1}, "stage")
	hv.With("lookup").Observe(0.004)
	hv.With("infer").Observe(0.2)
	r.GaugeFunc("demo_func_gauge", "Computed at scrape.", func() float64 { return 42 })
	r.Counter("demo_escape_total", "Help with \\ backslash\nand newline.")
	cv2 := r.CounterVec("demo_labels_total", "Label escaping.", "path")
	cv2.With(`a"b\c`).Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("g", "")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %v, want 6", got)
	}
	if got := r.Value("c_total"); got != 3.5 {
		t.Errorf("Value(c_total) = %v, want 3.5", got)
	}
	if got := r.Value("missing"); got != 0 {
		t.Errorf("Value(missing) = %v, want 0", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{1, 2})
	for _, v := range []float64{0.5, 1, 1.5, 5} {
		h.Observe(v) // le="1" gets 0.5 and 1 (le is inclusive); le="2" adds 1.5; +Inf adds 5
	}
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 8 {
		t.Errorf("sum = %v, want 8", got)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`h_seconds_bucket{le="1"} 2`,
		`h_seconds_bucket{le="2"} 3`,
		`h_seconds_bucket{le="+Inf"} 4`,
		`h_seconds_sum 8`,
		`h_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "")
	b := r.Counter("same_total", "")
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Errorf("re-registered counter split state: %v, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering with different type did not panic")
		}
	}()
	r.Gauge("same_total", "")
}

func TestVecLabelMismatchPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("lv_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label-value count did not panic")
		}
	}()
	cv.With("only-one")
}

func TestSumAcrossSeries(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("s_total", "", "k")
	cv.With("a").Add(2)
	cv.With("b").Add(3)
	if got := r.Sum("s_total"); got != 5 {
		t.Errorf("Sum = %v, want 5", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must read as zero")
	}
}

// TestConcurrentScrapeWhileRecording exercises the race detector: many
// writers recording into counters, gauges and histograms while scrapes and
// new-series registrations run concurrently.
func TestConcurrentScrapeWhileRecording(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("race_total", "", "w")
	hv := r.HistogramVec("race_seconds", "", LatencyBuckets, "w")
	g := r.Gauge("race_gauge", "")
	r.GaugeFunc("race_fn", "", func() float64 { return 1 })

	const writers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w))
			c := cv.With(label)
			h := hv.With(label)
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				g.Set(float64(i))
				if i%50 == 0 {
					// late registration while scraping
					cv.With(label + "x").Inc()
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	total := 0.0
	for w := 0; w < writers; w++ {
		total += r.Value("race_total", string(rune('a'+w)))
	}
	if total != writers*iters {
		t.Errorf("lost counter increments: %v, want %d", total, writers*iters)
	}
	for w := 0; w < writers; w++ {
		if got := r.HistogramCount("race_seconds", string(rune('a'+w))); got != iters {
			t.Errorf("histogram %c count = %d, want %d", 'a'+w, got, iters)
		}
	}
}

// TestCounterVecFunc checks labelled series computed at scrape time: the
// exposition, Value and Sum read the functions, and a later registration
// re-points a series.
func TestCounterVecFunc(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("demo_cache_hits_total", "Hits by cache.", "cache")
	n := 3.0
	cv.Func(func() float64 { return n }, "layout")
	cv.Func(func() float64 { return 1 }, "program")
	n = 4
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"demo_cache_hits_total{cache=\"layout\"} 4\n",
		"demo_cache_hits_total{cache=\"program\"} 1\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, buf.String())
		}
	}
	if got := r.Value("demo_cache_hits_total", "layout"); got != 4 {
		t.Errorf("Value = %v, want 4", got)
	}
	if got := r.Sum("demo_cache_hits_total"); got != 5 {
		t.Errorf("Sum = %v, want 5", got)
	}
	cv.Func(func() float64 { return 9 }, "program")
	if got := r.Value("demo_cache_hits_total", "program"); got != 9 {
		t.Errorf("re-registered Value = %v, want 9", got)
	}
}
