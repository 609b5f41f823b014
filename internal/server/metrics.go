package server

import (
	"context"
	"net/http"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
)

// serverMetrics holds every handle the server records into, resolved once at
// construction so the request path never touches the registry's maps. All
// names carry the stencilserve_ prefix and land in the obs.Registry the
// server shares with the middleware chain and the retrainer.
type serverMetrics struct {
	reg *obs.Registry

	requests *obs.CounterVec   // stencilserve_requests_total{endpoint}
	duration *obs.HistogramVec // stencilserve_request_duration_seconds{endpoint}
	stages   *obs.HistogramVec // stencilserve_stage_duration_seconds{stage}

	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	coalesced     *obs.Counter
	inferences    *obs.Counter
	flightRetries *obs.Counter
	errors        *obs.Counter

	measureRequests *obs.Counter
	measureAdmitted *obs.Counter
	measureShed     *obs.Counter

	walAppended   *obs.Counter
	walDropped    *obs.Counter
	walSyncErrors *obs.Counter
	walFsync      *obs.Histogram
	observations  *obs.Counter

	// stageH pre-resolves the pipeline's known stage histograms so the trace
	// sink on the hot path is a small map lookup, not a registry lookup.
	stageH map[string]*obs.Histogram
}

// pipelineStages are the tune pipeline's span names; see the package comment
// in obs and the README's observability section.
var pipelineStages = []string{"cache_lookup", "flight_wait", "queue_wait", "inference", "measure"}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("stencilserve_requests_total",
			"HTTP requests received, by endpoint.", "endpoint"),
		duration: reg.HistogramVec("stencilserve_request_duration_seconds",
			"End-to-end request latency, by endpoint.", obs.LatencyBuckets, "endpoint"),
		stages: reg.HistogramVec("stencilserve_stage_duration_seconds",
			"Latency of each tune-pipeline stage (cache_lookup, flight_wait, queue_wait, inference, measure).",
			obs.LatencyBuckets, "stage"),
		cacheHits: reg.Counter("stencilserve_cache_hits_total",
			"Responses answered from the LRU cache."),
		cacheMisses: reg.Counter("stencilserve_cache_misses_total",
			"Requests that missed the LRU cache."),
		coalesced: reg.Counter("stencilserve_coalesced_total",
			"Requests answered by another request's in-flight computation."),
		inferences: reg.Counter("stencilserve_inferences_total",
			"Model computations actually executed (cache and coalescing both missed)."),
		flightRetries: reg.Counter("stencilserve_flight_retries_total",
			"Coalesced waiters that retried after their leader's context was cancelled."),
		errors: reg.Counter("stencilserve_errors_total",
			"Requests answered with an error status."),
		measureRequests: reg.Counter("stencilserve_measure_requests_total",
			"Requests that asked for wall-clock measurement (mode=measure)."),
		measureAdmitted: reg.Counter("stencilserve_measure_admitted_total",
			"Measure-mode requests admitted through the bounded queue."),
		measureShed: reg.Counter("stencilserve_measure_shed_total",
			"Measure-mode requests shed with 503 because the queue was full."),
		walAppended: reg.Counter("stencilserve_wal_appended_total",
			"Observation records durably appended to the WAL."),
		walDropped: reg.Counter("stencilserve_wal_dropped_total",
			"Observation records shed (full buffer) or rejected by the WAL."),
		walSyncErrors: reg.Counter("stencilserve_wal_sync_errors_total",
			"WAL fsync failures."),
		walFsync: reg.Histogram("stencilserve_wal_fsync_seconds",
			"Duration of WAL batch fsyncs.", obs.LatencyBuckets),
		observations: reg.Counter("stencilserve_observations_total",
			"Client-reported observations accepted via /v1/observe."),
	}
	m.stageH = make(map[string]*obs.Histogram, len(pipelineStages))
	for _, stage := range pipelineStages {
		m.stageH[stage] = m.stages.With(stage)
	}
	return m
}

// stageSink routes finished trace spans into the per-stage histograms; it is
// the sink obs.WithTrace installs on every instrumented request.
func (m *serverMetrics) stageSink(stage string, seconds float64) {
	h, ok := m.stageH[stage]
	if !ok {
		h = m.stages.With(stage)
	}
	h.Observe(seconds)
}

// recordSpan lands one pipeline-stage timing: on the request's trace when one
// is installed (the trace's sink then feeds the stage histogram, and the span
// shows up in the access-log line), directly into the stage histogram
// otherwise. Traces are only installed when access logging is on, so the
// bare hot path pays one histogram observe and nothing else.
func (s *Server) recordSpan(ctx context.Context, stage string, start time.Time, dur time.Duration) {
	if tr := obs.TraceFrom(ctx); tr != nil {
		tr.Add(stage, start, dur)
		return
	}
	s.m.stageSink(stage, dur.Seconds())
}

// registerGauges wires the scrape-time gauges that read live server state.
// Registered here (not in serverMetrics) because they capture s.
func (s *Server) registerGauges() {
	reg := s.m.reg
	reg.GaugeFunc("stencilserve_cache_entries",
		"Entries currently held by the response LRU cache.",
		func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc("stencilserve_flight_waiting",
		"Requests currently parked behind an in-flight identical computation.",
		func() float64 { return float64(s.flight.Waiting()) })
	reg.GaugeFunc("stencilserve_measure_queue_depth",
		"Measure-mode requests currently holding queue slots.",
		func() float64 { return float64(s.MeasureQueueDepth()) })
	reg.GaugeFunc("stencilserve_measure_queue_capacity",
		"Configured bound of the measure queue.",
		func() float64 { return float64(s.MeasureQueueCapacity()) })
	reg.GaugeFunc("stencilserve_registry_generation",
		"Generation number of the currently served model registry.",
		func() float64 { return float64(s.reg.Version()) })
	// Executor cache counts, summed over the measurer's two runners. The
	// measurer starts lazily, so every series reads 0 until the first
	// measure-mode request.
	for _, c := range []struct {
		name, help string
		pick       func(exec.CacheStats) uint64
	}{
		{"stencilserve_exec_cache_hits_total",
			"Executor cache lookups answered from the cache, by cache (program, layout).",
			func(c exec.CacheStats) uint64 { return c.Hits }},
		{"stencilserve_exec_cache_misses_total",
			"Executor cache lookups that built a new entry, by cache (program, layout).",
			func(c exec.CacheStats) uint64 { return c.Misses }},
		{"stencilserve_exec_cache_evictions_total",
			"Executor cache entries evicted by the cache bounds, by cache (program, layout).",
			func(c exec.CacheStats) uint64 { return c.Evictions }},
	} {
		v := reg.CounterVec(c.name, c.help, "cache")
		v.Func(func() float64 { p, _ := s.execCacheStats(); return float64(c.pick(p)) }, "program")
		v.Func(func() float64 { _, l := s.execCacheStats(); return float64(c.pick(l)) }, "layout")
	}
	// Executor worker-pool counts, summed over the same two runners: did
	// the executor run what the vector asked for, on how many workers.
	for _, c := range []struct {
		name, help string
		pick       func(exec.PoolStats) uint64
	}{
		{"stencilserve_exec_pool_runs_total",
			"Executor pool runs: one per program run, one per fused wavefront iteration.",
			func(p exec.PoolStats) uint64 { return p.Runs }},
		{"stencilserve_exec_pool_joined_runs_total",
			"Executor pool runs that at least one woken worker joined before the run closed.",
			func(p exec.PoolStats) uint64 { return p.JoinedRuns }},
		{"stencilserve_exec_pool_steals_total",
			"Chunks an executor pool participant claimed from another participant's slab.",
			func(p exec.PoolStats) uint64 { return p.Steals }},
	} {
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(c.pick(s.execPoolStats())) })
	}
	reg.GaugeVec("stencilserve_build_info",
		"Build identity; the value is always 1.", "version", "commit", "go").
		With(s.build.Version, s.build.Commit, s.build.GoVersion).Set(1)
}

// ---------------------------------------------------------------------------
// Request instrumentation

// statusWriter records the status code a handler wrote (default 200).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards http.Flusher through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one route with the observability envelope: a requests
// counter and duration histogram (handles resolved here, once per route, not
// per request), a trace carried through the request context feeding the
// per-stage histograms, and — when an access logger is configured — one
// structured log line per request carrying the correlation ID and the
// request's spans. It is applied inside Handler, so every mounting of the
// server (production chain, bare test handler) observes identically.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	requests := s.m.requests.With(endpoint)
	duration := s.m.duration.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		requests.Inc()
		if s.accessLog == nil {
			// No access log means no per-request span collection: stage
			// timings go straight into the histograms via recordSpan, and
			// the hot path skips the trace, context and status-writer
			// allocations entirely.
			h(w, r)
			duration.Observe(time.Since(start).Seconds())
			return
		}
		// One allocation covers the whole per-request envelope: the status
		// writer, the trace and the log-field scratch space live in the same
		// struct.
		rt := &reqTrack{statusWriter: statusWriter{ResponseWriter: w}}
		rt.trace.Init(s.m.stageSink)
		ctx := obs.ContextWithTrace(r.Context(), &rt.trace)
		r = r.WithContext(ctx)
		h(&rt.statusWriter, r)
		elapsed := time.Since(start)
		duration.Observe(elapsed.Seconds())
		status := rt.status
		if status == 0 {
			status = http.StatusOK
		}
		// The middleware chain injects the correlation ID into the context;
		// embedders mounting the bare Handler still get correlation when the
		// client sent an X-Request-ID header (as the shipped client always
		// does).
		id := obs.RequestIDFrom(ctx)
		if id == "" {
			id = r.Header.Get("X-Request-ID")
		}
		fields := append(rt.fields[:0],
			obs.F("request_id", id),
			obs.F("method", r.Method),
			obs.F("path", r.URL.Path),
			obs.F("endpoint", endpoint),
			obs.F("status", status),
			obs.F("duration_us", elapsed.Microseconds()),
		)
		if source := rt.Header().Get("X-Cache"); source != "" {
			fields = append(fields, obs.F("cache", source))
		}
		if rt.trace.Len() > 0 {
			fields = append(fields, obs.F("spans", &rt.trace))
		}
		s.accessLog.Info("request", fields...)
	}
}

// reqTrack bundles the per-request instrumentation state so the instrumented
// path pays a single allocation for all of it.
type reqTrack struct {
	statusWriter
	trace  obs.Trace
	fields [9]obs.Field
}
