package obs

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// Span is one timed stage of a request's pipeline.
type Span struct {
	Stage string
	Start time.Time
	Dur   time.Duration
}

// Trace collects the spans of one request. It is initialised with Init,
// carried through the request's context, and read back at the end of the
// request to emit the spans into the access log line. Spans may be recorded
// from the handler goroutine and (via singleflight) a leader goroutine, so
// appends are mutex-guarded.
type Trace struct {
	mu    sync.Mutex
	spans []Span
	sink  func(stage string, seconds float64)
	// buf inlines storage for the common case (a handful of spans per
	// request) so recording the first spans costs no heap allocation beyond
	// the Trace itself.
	buf [4]Span
}

// traceKey carries the *Trace through a context.
type traceKey struct{}

// Init prepares a zero Trace for use with the given sink. It exists so
// callers on a hot path can embed a Trace inside a larger per-request struct
// and pay one allocation instead of two.
func (t *Trace) Init(sink func(stage string, seconds float64)) {
	t.sink = sink
	t.spans = t.buf[:0]
}

// ContextWithTrace attaches an already-initialised Trace to ctx.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the Trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Add records an already-measured span on the trace.
func (t *Trace) Add(stage string, start time.Time, dur time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Stage: stage, Start: start, Dur: dur})
	t.mu.Unlock()
	if t.sink != nil {
		t.sink(stage, dur.Seconds())
	}
}

// Len returns the number of spans recorded so far.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// AppendJSON appends the spans as a JSON array of {"stage","us"} objects
// (stage name and microseconds) without materialising an intermediate
// slice. Loggers use it to serialise a *Trace field straight off the request.
func (t *Trace) AppendJSON(b []byte) []byte {
	if t == nil {
		return append(b, '[', ']')
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b = append(b, '[')
	for i, s := range t.spans {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"stage":`...)
		b = appendJSONString(b, s.Stage)
		b = append(b, `,"us":`...)
		b = strconv.AppendInt(b, s.Dur.Microseconds(), 10)
		b = append(b, '}')
	}
	return append(b, ']')
}
