// Package server is the HTTP tuning service of the serving subsystem:
// tuning-as-a-service around the persistent model store. A trained ranking
// model orders tuning vectors for unseen stencils without executing them, so
// tuning is a cheap inference query — exactly the shape of a high-traffic
// online service. The server loads a registry of stored models and answers:
//
//	POST /v1/tune     rank the predefined configuration set, return the best
//	                  vector (optionally hybrid: measure the top-k and pick)
//	POST /v1/rank     rank an explicit (or the predefined) candidate set
//	POST /v1/predict  per-vector runtimes (simulator or measured) or scores
//	GET  /v1/models   list the loaded models with their provenance
//	GET  /healthz     liveness + build identity
//	GET  /metrics     Prometheus text exposition (counters, gauges, latency
//	                  and pipeline-stage histograms)
//
// Hot-path economics: responses are cached in a sharded LRU keyed by (model,
// kernel structure, size, vector set, mode), and concurrent identical
// requests coalesce through a singleflight group, so a thundering herd of
// equal tune queries costs a single inference. Evaluation reuses the batch
// pipeline — BatchedContext fan-out honoring the request context, Memoized
// de-duplication — and mode=measure requests serialize wall-clock timing
// through exec.Measurer.MeasureBatch for fidelity (the measurer's pooled
// grids and compiled plans make repeats allocation-free).
package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/stencil"
	"repro/internal/tunespace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// DefaultMaxBodyBytes is the request body cap of a replica and of the lb in
// front of it when their configs leave it unset: 16 MiB.
const DefaultMaxBodyBytes = 16 << 20

// Config sizes a server instance.
type Config struct {
	// ModelDir is the store directory holding the artifacts to serve.
	ModelDir string
	// CacheSize bounds the response LRU in entries (default 4096).
	CacheSize int
	// Workers bounds the evaluation fan-out per request for simulated
	// prediction and hybrid tuning (0/1 sequential, negative GOMAXPROCS —
	// the convention of every workers knob in this codebase; default -1).
	Workers int
	// MaxBodyBytes caps request bodies; an over-limit body is rejected
	// with 413. Zero or negative means DefaultMaxBodyBytes, as in lb.Config.
	MaxBodyBytes int64
	// MeasureQueueDepth bounds how many measure-mode requests may be
	// queued or running at once; arrivals beyond it are shed with 503
	// (default 8). See admission.go.
	MeasureQueueDepth int
	// WAL, when non-nil, receives every measure-mode result and every
	// /v1/observe report as a durable observation record, appended off the
	// request path by a bounded background writer that sheds under pressure
	// (see obsSink). The server borrows the log; the caller owns and closes
	// it after Server.Close returns.
	WAL *wal.Log
	// Machine tags WAL observations with the host that measured them
	// (default: os.Hostname).
	Machine string
	// ObserveBuffer bounds the in-memory observation queue between the
	// request path and the WAL writer (default 1024); beyond it records are
	// shed, never blocking a request.
	ObserveBuffer int
	// Registry receives every metric the server records. nil creates a
	// private registry, so independent Server instances (tests run many per
	// process) keep independent counters; production passes one registry
	// shared with the middleware chain and the retrainer.
	Registry *obs.Registry
	// AccessLog, when non-nil, receives one structured log line per request
	// carrying the correlation ID, status, latency and pipeline spans.
	AccessLog *obs.Logger
}

// Server is the tuning service. Create with New, mount Handler, Close when
// done (it owns the measuring executor's worker pool).
type Server struct {
	reg    *Registry
	cache  *lruCache
	flight flightGroup

	workers int
	maxBody int64
	start   time.Time
	build   buildinfo.Info

	// measureSlots is the admission gate for measure-mode work: a slot is
	// held from admission until the measurement completes, and a full
	// channel sheds new arrivals with 503 (see admission.go).
	measureSlots chan struct{}

	// draining flips when the process has begun graceful shutdown; /readyz
	// then reports not-ready so load balancers stop sending new traffic
	// while in-flight requests finish.
	draining atomic.Bool

	// m holds every metric handle, resolved once at construction; obsReg is
	// the registry behind them (private unless Config.Registry was set).
	m      *serverMetrics
	obsReg *obs.Registry
	// accessLog, when non-nil, gets one structured line per request.
	accessLog *obs.Logger

	// sink is the non-blocking WAL writer, nil when no WAL is configured.
	sink *obsSink
	// machine tags WAL observations produced by this server's own measurer.
	machine string

	// measureMu guards the lazily created measurer against Close: an http
	// TimeoutHandler can detach a measure request's goroutine from
	// Shutdown's drain, so creation and teardown must synchronize.
	measureMu sync.Mutex
	measurer  *exec.Measurer
	closed    bool

	// testHookInfer, when set, runs at the start of every non-coalesced
	// inference — the coalescing tests gate it to hold a computation open.
	testHookInfer func()
	// testHookMeasure, when set, runs after a measure-mode request is
	// admitted through the queue gate and before it evaluates — the
	// admission tests gate it to hold slots occupied deterministically.
	testHookMeasure func()
}

// New loads every artifact under cfg.ModelDir and returns a ready server.
func New(cfg Config) (*Server, error) {
	reg, err := loadRegistry(cfg.ModelDir)
	if err != nil {
		return nil, err
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 4096
	}
	if cfg.Workers == 0 {
		cfg.Workers = -1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MeasureQueueDepth <= 0 {
		cfg.MeasureQueueDepth = 8
	}
	if cfg.Machine == "" {
		if host, err := os.Hostname(); err == nil {
			cfg.Machine = host
		} else {
			cfg.Machine = "unknown"
		}
	}
	obsReg := cfg.Registry
	if obsReg == nil {
		obsReg = obs.NewRegistry()
	}
	s := &Server{
		reg:          reg,
		cache:        newLRU(cfg.CacheSize),
		workers:      cfg.Workers,
		maxBody:      cfg.MaxBodyBytes,
		start:        time.Now(),
		build:        buildinfo.Read(),
		m:            newServerMetrics(obsReg),
		obsReg:       obsReg,
		accessLog:    cfg.AccessLog,
		measureSlots: make(chan struct{}, cfg.MeasureQueueDepth),
		machine:      cfg.Machine,
	}
	s.registerGauges()
	if cfg.WAL != nil {
		s.sink = newObsSink(cfg.WAL, s.m, cfg.ObserveBuffer)
	}
	return s, nil
}

// Close releases resources owned by the server: the measuring executor's
// persistent worker pool, when mode=measure requests ever started it. The
// server must not serve after Close; a straggler measure request detached by
// a timeout wrapper fails cleanly instead of resurrecting the pool.
func (s *Server) Close() {
	s.measureMu.Lock()
	s.closed = true
	if s.measurer != nil {
		s.measurer.Close()
		s.measurer = nil
	}
	s.measureMu.Unlock()
	// Flush buffered observations to the WAL before the caller closes it.
	if s.sink != nil {
		s.sink.close()
	}
}

// getMeasurer lazily creates the shared measuring executor; nil after Close.
// The measurer honors each request kernel's declared dtype (float requests
// time real float32 execution), and kernelFingerprint keys the response
// cache on the dtype, so the two precisions never share cached timings.
func (s *Server) getMeasurer() *exec.Measurer {
	s.measureMu.Lock()
	defer s.measureMu.Unlock()
	if s.closed {
		return nil
	}
	if s.measurer == nil {
		s.measurer = exec.NewMeasurer()
	}
	return s.measurer
}

// startedMeasurer returns the measurer without creating it: nil before the
// first measure-mode request, and after Close.
func (s *Server) startedMeasurer() *exec.Measurer {
	s.measureMu.Lock()
	defer s.measureMu.Unlock()
	return s.measurer
}

// execCacheStats reads the measurer's executor cache counts; all zero
// while there is no measurer.
func (s *Server) execCacheStats() (programs, layouts exec.CacheStats) {
	if m := s.startedMeasurer(); m != nil {
		return m.CacheStats()
	}
	return programs, layouts
}

// execPoolStats reads the measurer's worker-pool counts; all zero while
// there is no measurer.
func (s *Server) execPoolStats() exec.PoolStats {
	if m := s.startedMeasurer(); m != nil {
		return m.PoolStats()
	}
	return exec.PoolStats{}
}

// Models returns the loaded model names (sorted) and the default name of the
// currently served registry generation.
func (s *Server) Models() ([]string, string) {
	rs := s.reg.snapshot()
	return rs.names, rs.defaultName
}

// ReloadModels atomically swaps in a freshly loaded registry generation
// (SIGHUP, retrain promotion). On error the running generation is untouched.
func (s *Server) ReloadModels() (int64, error) { return s.reg.Reload() }

// RegistryVersion reports the currently served registry generation.
func (s *Server) RegistryVersion() int64 { return s.reg.Version() }

// Handler returns the route mux. Every route is wrapped by instrument, so
// per-endpoint request counters, latency histograms, trace spans and access
// logging apply identically however the handler is mounted.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tune", s.instrument("tune", s.post(s.handleTune)))
	mux.HandleFunc("/v1/rank", s.instrument("rank", s.post(s.handleRank)))
	mux.HandleFunc("/v1/predict", s.instrument("predict", s.post(s.handlePredict)))
	mux.HandleFunc("/v1/observe", s.instrument("observe", s.post(s.handleObserve)))
	mux.HandleFunc("/v1/models", s.instrument("models", s.handleModels))
	mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// ObsRegistry exposes the server's metrics registry so operational
// middleware (panic recovery, rate limiting) and the retrainer record into
// the same /metrics surface.
func (s *Server) ObsRegistry() *obs.Registry { return s.obsReg }

// StartDraining marks the server not-ready: /readyz answers 503 so load
// balancers stop routing here, while existing endpoints keep serving until
// the listener finishes draining. Call it when shutdown begins, before
// http.Server.Shutdown.
func (s *Server) StartDraining() { s.draining.Store(true) }

// ---------------------------------------------------------------------------
// Request resolution

// resolved is a request bound to what it addresses: the model it answers
// from, the stencil instance and the kernel's structural fingerprint.
type resolved struct {
	lm *loadedModel
	q  stencil.Instance
	fp string
}

// resolve is the one request parse of the instance endpoints: it decodes
// body, a wire request embedding in, snapshots the registry generation and
// resolves the model in it, builds the instance (wire.Instance.Build, which
// RoutingKey shares) and fingerprints its kernel. On failure it has
// answered the request and reports ok=false.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, body any, in *wire.Instance) (res resolved, ok bool) {
	if err := s.decode(w, r, body); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return res, false
	}
	// Snapshot the registry generation once: this request answers from the
	// model set it started on, even if a retrain promotes mid-request.
	lm, err := s.reg.snapshot().resolve(in.Model)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return res, false
	}
	q, err := in.Build()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return res, false
	}
	return resolved{lm: lm, q: q, fp: kernelFingerprint(q.Kernel)}, true
}

// ---------------------------------------------------------------------------
// Cache keys

// hashInts writes ints to a running hash as canonical little-endian int64s.
func hashInts(h io.Writer, vals ...int) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
}

// kernelFingerprint hashes the kernel *structure* — access pattern with
// multiplicities, buffer count, dtype, flop cost — so two requests
// describing the same stencil under different names share cache entries and
// coalesce. The kernel name is informational only (it never enters feature
// encoding or the simulator), so structurally equal kernels are genuinely
// interchangeable; the cached response's instance label reflects the request
// that computed the entry.
func kernelFingerprint(k *stencil.Kernel) string {
	h := sha256.New()
	hashInts(h, k.Dims(), k.Buffers, int(k.Type), k.Flops())
	for _, p := range k.Shape.Points() {
		hashInts(h, p.X, p.Y, p.Z, k.Shape.Multiplicity(p))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// RoutingKey derives the consistent-hash routing key a load balancer uses to
// pin a request body to one replica. It is the structural prefix of the
// response cache key — requested model, kernel-structure fingerprint, size —
// so all requests that could share a cache entry or coalesce in a
// singleflight land on the same replica, and each replica's LRU sees a
// disjoint slice of the hot set. Bodies that do not parse as an instance
// request (they would 4xx anyway) report ok=false; the balancer falls back
// to spreading them.
func RoutingKey(body []byte) (key string, ok bool) {
	var in wire.Instance
	if err := json.Unmarshal(body, &in); err != nil {
		return "", false
	}
	q, err := in.Build()
	if err != nil {
		return "", false
	}
	return in.Model + "|" + kernelFingerprint(q.Kernel) + "|" + q.Size.String(), true
}

// cacheKey formats the response cache key of an endpoint: the model by name
// and content hash (so a hot-swapped model never answers from its
// predecessor's entries), the kernel fingerprint, the size, then the
// endpoint's own fields.
func (res resolved) cacheKey(endpoint string, fields ...string) string {
	lm := res.lm.info
	return strings.Join(append([]string{endpoint, lm.Name + "@" + lm.ContentHash, res.fp, res.q.Size.String()}, fields...), "|")
}

func vectorSetHash(vs []tunespace.Vector) string {
	h := sha256.New()
	var buf []byte
	for _, v := range vs {
		buf = v.AppendFields(buf[:0])
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ---------------------------------------------------------------------------
// HTTP plumbing

func (s *Server) post(h func(w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("%s needs POST", r.URL.Path))
			return
		}
		h(w, r)
	}
}

// httpError carries an explicit status (and optional Retry-After seconds)
// through the compute/decode plumbing to fail; plain errors default to the
// caller's code.
type httpError struct {
	code       int
	msg        string
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
		}
	}
	s.m.errors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// decode reads and unmarshals a request body under the configured size
// cap. The real ResponseWriter goes to MaxBytesReader (it closes the
// connection on overrun so the client stops uploading), and an over-limit
// body maps to an explicit 413 instead of a generic failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &httpError{
				code: http.StatusRequestEntityTooLarge,
				msg:  fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit),
			}
		}
		return fmt.Errorf("reading body: %v", err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decoding request: %v", err)
	}
	return nil
}

// serveCached answers from the LRU, or coalesces concurrent identical
// misses into one compute call whose serialized response is cached. Compute
// runs under the flight leader's request context; when the leader's client
// vanishes mid-compute (disconnect, timeout) its cancellation must not
// poison healthy coalesced waiters, so a waiter that receives a context
// error retries the flight under its own context. The X-Cache header
// reports which path answered: hit, miss or coalesced.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, compute func(ctx context.Context) (any, error)) {
	// recordSpan takes the measured duration, so timing a stage allocates
	// no closure; cache lookups run on every request.
	lookupStart := time.Now()
	b, ok := s.cache.Get(key)
	s.recordSpan(r.Context(), "cache_lookup", lookupStart, time.Since(lookupStart))
	if ok {
		s.m.cacheHits.Inc()
		s.respond(w, "hit", b)
		return
	}
	s.m.cacheMisses.Inc()
	run := func() ([]byte, error) {
		if s.testHookInfer != nil {
			s.testHookInfer()
		}
		s.m.inferences.Inc()
		// The inference span lands on the flight leader's trace: the leader
		// did the work, waiters record flight_wait instead.
		inferStart := time.Now()
		resp, err := compute(r.Context())
		s.recordSpan(r.Context(), "inference", inferStart, time.Since(inferStart))
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		s.cache.Put(key, b)
		return b, nil
	}
	flightStart := time.Now()
	b, err, shared := s.flight.Do(r.Context(), key, run)
	if err != nil && shared && isCtxErr(err) && r.Context().Err() == nil {
		// The leader was cancelled, we were not: retry as (or behind) a new
		// leader, and report what the retry actually did.
		s.m.flightRetries.Inc()
		b, err, shared = s.flight.Do(r.Context(), key, run)
	}
	if err != nil {
		// fail upgrades typed *httpError codes (e.g. 503 queue shed).
		code := http.StatusBadRequest
		if isCtxErr(err) {
			code = http.StatusServiceUnavailable
		}
		s.fail(w, code, err)
		return
	}
	source := "miss"
	if shared {
		s.m.coalesced.Inc()
		// Only now is this request known to be a waiter, not the leader:
		// record the time it spent parked behind the shared flight.
		s.recordSpan(r.Context(), "flight_wait", flightStart, time.Since(flightStart))
		source = "coalesced"
	}
	s.respond(w, source, b)
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (s *Server) respond(w http.ResponseWriter, source string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", source)
	w.Write(body)
	w.Write([]byte("\n"))
}

// evaluatorFor builds the per-request evaluation stack for a mode:
// request-scoped memoization over a context-honoring fan-out of the model's
// simulator, or a session on the shared wall-clock measurer (which batches
// natively, serialized for timing fidelity). Measure mode passes through the
// admission gate, so the caller must invoke release (always non-nil) once
// the evaluation is done; a full queue fails with a 503 shed error. failure
// (always non-nil) reports the executor's first error of this request's
// measurements, nil in sim mode: a configuration the executor cannot run
// evaluates to +Inf, and failure says why.
func (s *Server) evaluatorFor(ctx context.Context, lm *loadedModel, mode string) (eval dataset.BatchEvaluator, failure func() error, release func(), err error) {
	noop := func() {}
	none := func() error { return nil }
	switch mode {
	case "", "sim":
		return dataset.Memoized(dataset.BatchedContext(ctx, lm.sim, s.workers)), none, noop, nil
	case "measure":
		s.m.measureRequests.Inc()
		waitStart := time.Now()
		release, err := s.admitMeasure()
		s.recordSpan(ctx, "queue_wait", waitStart, time.Since(waitStart))
		if err != nil {
			return nil, none, noop, err
		}
		if s.testHookMeasure != nil {
			s.testHookMeasure()
		}
		m := s.getMeasurer()
		if m == nil {
			release()
			return nil, none, noop, fmt.Errorf("server is shutting down")
		}
		sess := m.Session()
		return dataset.Memoized(spanEval{sess, ctx, s}), sess.Err, release, nil
	default:
		return nil, none, noop, fmt.Errorf("unknown mode %q (want sim or measure)", mode)
	}
}

// spanEval records a "measure" span around each real evaluation. It sits
// inside Memoized, so deduplicated repeats never record phantom spans.
type spanEval struct {
	inner dataset.BatchEvaluator
	ctx   context.Context
	s     *Server
}

func (e spanEval) Runtime(q stencil.Instance, t tunespace.Vector) float64 {
	start := time.Now()
	defer func() { e.s.recordSpan(e.ctx, "measure", start, time.Since(start)) }()
	return e.inner.Runtime(q, t)
}

func (e spanEval) RuntimeBatch(q stencil.Instance, ts []tunespace.Vector) []float64 {
	start := time.Now()
	defer func() { e.s.recordSpan(e.ctx, "measure", start, time.Since(start)) }()
	return e.inner.RuntimeBatch(q, ts)
}

// ---------------------------------------------------------------------------
// Endpoints

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req wire.TuneRequest
	res, ok := s.resolve(w, r, &req, &req.Instance)
	if !ok {
		return
	}
	if req.TopK < 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("topk must be >= 0"))
		return
	}
	mode, err := normalizeMode(req.Mode, "sim", "measure")
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	lm, q := res.lm, res.q
	s.serveCached(w, r, res.cacheKey("tune", strconv.Itoa(req.TopK), mode), func(ctx context.Context) (any, error) {
		cands := tunespace.NewSpace(q.Kernel.Dims()).Predefined()
		resp := &wire.TuneResponse{
			Model:            lm.info.Name,
			Instance:         q.ID(),
			RankedCandidates: len(cands),
		}
		if req.TopK == 0 {
			start := time.Now()
			best, err := lm.tuner.Best(q, cands)
			if err != nil {
				return nil, err
			}
			resp.Best = wire.FromTuning(best)
			resp.RankMicros = time.Since(start).Microseconds()
			return resp, nil
		}
		// A hybrid tune ranks once: the model's top-1 is the head of the
		// same ranking the top-k measurements are drawn from.
		eval, failure, release, err := s.evaluatorFor(ctx, lm, mode)
		if err != nil {
			return nil, err
		}
		defer release()
		hres, err := lm.tuner.HybridTopK(q, cands, req.TopK, core.BatchObjectiveFor(eval, q))
		if err != nil {
			return nil, err
		}
		// A cancelled fan-out reports +Inf sentinels; never serve or
		// cache such a poisoned result.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// No top-k candidate ran: answer with the executor's reason. An
		// error is neither cached nor logged to the WAL.
		if math.IsInf(hres.BestValue, 1) {
			err := failure()
			if err == nil {
				err = errors.New("no finite runtime")
			}
			return nil, fmt.Errorf("none of the top-%d candidates could be evaluated: %w", hres.Evaluations, err)
		}
		resp.Best = wire.FromTuning(hres.ModelBest)
		resp.RankMicros = hres.RankTime.Microseconds()
		resp.Hybrid = &wire.Hybrid{
			TopK:      hres.Evaluations,
			Mode:      mode,
			Best:      wire.FromTuning(hres.Best),
			BestValue: hres.BestValue,
		}
		if mode == "measure" {
			s.record(res.observation(hres.Best, hres.BestValue, "measure", s.machine, time.Now().UnixNano()))
		}
		return resp, nil
	})
}

// normalizeMode canonicalizes a request's evaluation mode before it enters
// a cache key: empty means the first (default) allowed value, anything not
// allowed is rejected up front.
func normalizeMode(mode string, allowed ...string) (string, error) {
	if mode == "" {
		return allowed[0], nil
	}
	for _, a := range allowed {
		if mode == a {
			return mode, nil
		}
	}
	return "", fmt.Errorf("unknown mode %q (want one of %v)", mode, allowed)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var req wire.RankRequest
	res, ok := s.resolve(w, r, &req, &req.Instance)
	if !ok {
		return
	}
	lm, q := res.lm, res.q
	cands := make([]tunespace.Vector, len(req.Candidates))
	for i, v := range req.Candidates {
		cands[i] = v.Tuning(q.Kernel.Dims())
	}
	if len(cands) == 0 {
		cands = tunespace.NewSpace(q.Kernel.Dims()).Predefined()
	}
	key := res.cacheKey("rank", vectorSetHash(cands), strconv.FormatBool(req.ReturnScores))
	s.serveCached(w, r, key, func(context.Context) (any, error) {
		var order []int
		var scores []float64
		var err error
		if req.ReturnScores {
			order, scores, err = lm.tuner.RankScored(q, cands)
		} else {
			order, err = lm.tuner.Rank(q, cands)
		}
		if err != nil {
			return nil, err
		}
		return &wire.RankResponse{
			Model:      lm.info.Name,
			Instance:   q.ID(),
			Candidates: len(cands),
			Order:      order,
			Best:       wire.FromTuning(cands[order[0]]),
			Scores:     scores,
		}, nil
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req wire.PredictRequest
	res, ok := s.resolve(w, r, &req, &req.Instance)
	if !ok {
		return
	}
	lm, q := res.lm, res.q
	if len(req.Vectors) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("missing vectors"))
		return
	}
	vs := make([]tunespace.Vector, len(req.Vectors))
	for i, v := range req.Vectors {
		vs[i] = v.Tuning(q.Kernel.Dims())
		if err := vs[i].Validate(q.Kernel.Dims()); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("vector %d: %v", i, err))
			return
		}
	}
	mode, err := normalizeMode(req.Mode, "sim", "measure", "score")
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	s.serveCached(w, r, res.cacheKey("predict", vectorSetHash(vs), mode), func(ctx context.Context) (any, error) {
		resp := &wire.PredictResponse{Model: lm.info.Name, Instance: q.ID(), Mode: mode, Unit: "seconds"}
		if mode == "score" {
			resp.Unit = "score"
			var err error
			if resp.Values, err = lm.tuner.Scores(q, vs); err != nil {
				return nil, err
			}
			return resp, nil
		}
		eval, failure, release, err := s.evaluatorFor(ctx, lm, mode)
		if err != nil {
			return nil, err
		}
		defer release()
		resp.Values = eval.RuntimeBatch(q, vs)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A vector the executor cannot run has no runtime to report.
		if err := failure(); err != nil {
			return nil, fmt.Errorf("measuring: %w", err)
		}
		// Fresh wall-clock measurements are durable training signal: ship
		// them to the WAL off the request path. Cached and coalesced answers
		// never re-measure, so nothing is double-logged.
		if mode == "measure" {
			now := time.Now().UnixNano()
			for i, v := range vs {
				s.record(res.observation(v, resp.Values[i], "measure", s.machine, now))
			}
		}
		return resp, nil
	})
}

// handleModels lists the served model set on GET. POST is the SIGHUP
// equivalent over the wire: it reloads the registry from the store directory
// and answers with the fresh listing, which is what stencil-lb's
// -broadcast-reload fans across a fleet. A failed reload keeps the running
// generation serving and reports 500 with the load error.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		if _, err := s.ReloadModels(); err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]any{
				"error": fmt.Sprintf("reload failed, previous generation still serving: %v", err),
			})
			return
		}
	}
	rs := s.reg.snapshot()
	out := wire.ModelsResponse{
		Default:            rs.defaultName,
		RegistryVersion:    rs.version,
		RegistryGeneration: rs.generation,
		Skipped:            rs.skipped,
		Promotions:         rs.history,
	}
	names := append([]string(nil), rs.names...)
	sort.Strings(names)
	for _, name := range names {
		lm := rs.models[name]
		mi := wire.ModelInfo{
			Name:               name,
			ContentHash:        lm.info.ContentHash,
			FeatureDim:         lm.info.Meta.FeatureDim,
			TrainingPoints:     lm.info.Meta.TrainingPoints,
			Seed:               lm.info.Meta.Seed,
			Mode:               lm.info.Meta.Mode,
			C:                  lm.info.Meta.C,
			Pairs:              lm.info.Meta.Pairs,
			DatasetFingerprint: lm.info.Meta.DatasetFingerprint,
		}
		if lm.art.Machine != nil {
			mi.Machine = lm.art.Machine.Name
		}
		out.Models = append(out.Models, mi)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rs := s.reg.snapshot()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":              "ok",
		"version":             s.build.Version,
		"commit":              s.build.Commit,
		"go":                  s.build.GoVersion,
		"models":              len(rs.names),
		"default_model":       rs.defaultName,
		"registry_version":    rs.version,
		"registry_generation": rs.generation,
		"uptime_seconds":      int64(time.Since(s.start).Seconds()),
	})
}

// handleReadyz is the readiness probe: distinct from /healthz liveness, it
// answers 503 once draining begins or while the measure queue is saturated,
// so a balancer routes new traffic elsewhere while this instance catches up
// — the process is alive (healthz) but should not receive more load.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.MeasureQueueDepth(), s.MeasureQueueCapacity()
	draining := s.draining.Load()
	rs := s.reg.snapshot()
	ready := !draining && len(rs.names) > 0 && depth < capacity
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"ready":                  ready,
		"draining":               draining,
		"models":                 len(rs.names),
		"registry_generation":    rs.generation,
		"measure_queue_depth":    depth,
		"measure_queue_capacity": capacity,
	})
}

// handleMetrics serves the Prometheus text exposition of the full registry:
// the server's own series plus whatever the middleware chain, retrainer and
// runtime gauges registered alongside them.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.TextContentType)
	s.obsReg.WritePrometheus(w)
}
