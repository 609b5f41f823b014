// Package lb is the horizontal-scale front for stencil-serve: a thin HTTP
// balancer that fans the /v1 endpoints over N backend replicas with
// consistent-hash routing on the kernel-structure cache key. Requests that
// could share a cache entry or coalesce in a singleflight always land on the
// same replica, so each replica's LRU and in-flight set hold a disjoint
// slice of the hot keyspace — cache capacity and coalescing scale with the
// fleet instead of being replicated N times. The balancer is transparent to
// clients: same wire schema, same error envelopes, Retry-After and
// X-Request-ID passed through both ways.
package lb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Config wires a Balancer.
type Config struct {
	// Backends are the replica base URLs, e.g. http://127.0.0.1:8081.
	Backends []string
	// VirtualNodes is the number of ring points per backend; more points
	// smooth the keyspace split at the cost of a larger ring. Default 128.
	VirtualNodes int
	// HealthInterval is the /readyz probe period. Default 500ms.
	HealthInterval time.Duration
	// HealthTimeout bounds one probe. Default 2s.
	HealthTimeout time.Duration
	// EjectAfter ejects a backend after this many consecutive probe
	// failures. Default 2.
	EjectAfter int
	// ReadmitAfter readmits an ejected backend after this many consecutive
	// probe successes. Default 2.
	ReadmitAfter int
	// MaxBodyBytes caps an accepted request body. Zero or negative means
	// server.DefaultMaxBodyBytes, the replicas' own default, so the lb
	// accepts every body a default replica does.
	MaxBodyBytes int64
	// Logger receives eject/readmit and proxy-failure events. Nil discards.
	Logger *obs.Logger
	// Registry hosts the stencillb_* metrics. A private one is created when
	// nil.
	Registry *obs.Registry
}

func (c *Config) fillDefaults() {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 128
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 2
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = server.DefaultMaxBodyBytes
	}
	if c.Logger == nil {
		c.Logger = obs.NewLogger(io.Discard, "text")
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// backend is one replica and its health-tracking state. The probe loop is
// the only writer of the consecutive counters; everything handlers read is
// atomic.
type backend struct {
	url     string
	healthy atomic.Bool
	// generation is the replica's last-reported registry_generation.
	generation atomic.Pointer[string]
	lastErr    atomic.Pointer[string]
	consecFail atomic.Int32
	consecOK   atomic.Int32
}

type ringEntry struct {
	hash    uint32
	backend int
}

// Balancer fans requests over the backend fleet. It is an http.Handler.
type Balancer struct {
	cfg      Config
	backends []*backend
	ring     []ringEntry
	client   *http.Client
	probes   *http.Client
	spread   atomic.Uint64 // round-robin cursor for unroutable bodies
	met      *metrics
	stop     context.CancelFunc
	done     chan struct{}
}

// New builds a Balancer over cfg.Backends and starts its health loop.
// Backends start healthy (optimistic) and the first probe round corrects
// within one HealthInterval.
func New(cfg Config) (*Balancer, error) {
	cfg.fillDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("lb: no backends configured")
	}
	b := &Balancer{
		cfg: cfg,
		client: &http.Client{
			// Per-request routing latency budget; tune/measure requests can
			// take seconds cold, so this is generous.
			Timeout: 60 * time.Second,
		},
		probes: &http.Client{Timeout: cfg.HealthTimeout},
		met:    newMetrics(cfg.Registry),
		done:   make(chan struct{}),
	}
	for _, raw := range cfg.Backends {
		u := strings.TrimRight(raw, "/")
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			u = "http://" + u
		}
		be := &backend{url: u}
		be.healthy.Store(true)
		b.backends = append(b.backends, be)
		b.met.up.With(u).Set(1)
	}
	b.ring = buildRing(b.backends, cfg.VirtualNodes)
	ctx, cancel := context.WithCancel(context.Background())
	b.stop = cancel
	go b.healthLoop(ctx)
	return b, nil
}

// Close stops the health loop.
func (b *Balancer) Close() {
	b.stop()
	<-b.done
}

// fnv1a32 is FNV-1a over s — the same hash the backend's cache sharding
// uses, applied here to ring points and routing keys.
func fnv1a32(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

func buildRing(backends []*backend, vnodes int) []ringEntry {
	ring := make([]ringEntry, 0, len(backends)*vnodes)
	for i, be := range backends {
		for v := 0; v < vnodes; v++ {
			ring = append(ring, ringEntry{
				hash:    fnv1a32(fmt.Sprintf("%s#%d", be.url, v)),
				backend: i,
			})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].hash != ring[j].hash {
			return ring[i].hash < ring[j].hash
		}
		return ring[i].backend < ring[j].backend
	})
	return ring
}

// route returns backend indexes to try for key, healthy ones first in ring
// order from the key's position. The first entry is the consistent-hash
// owner whenever it is healthy; later entries are the transport-error
// failover order.
func (b *Balancer) route(key string) []int {
	h := fnv1a32(key)
	start := sort.Search(len(b.ring), func(i int) bool { return b.ring[i].hash >= h })
	if start == len(b.ring) {
		start = 0
	}
	seen := make(map[int]bool, len(b.backends))
	var healthy, ejected []int
	for i := 0; i < len(b.ring) && len(seen) < len(b.backends); i++ {
		e := b.ring[(start+i)%len(b.ring)]
		if seen[e.backend] {
			continue
		}
		seen[e.backend] = true
		if b.backends[e.backend].healthy.Load() {
			healthy = append(healthy, e.backend)
		} else {
			ejected = append(ejected, e.backend)
		}
	}
	// A fully ejected fleet still gets the traffic: the probes may simply
	// not have readmitted a recovered backend yet, and a failed proxy
	// attempt costs one connection error.
	return append(healthy, ejected...)
}

// spreadOrder is the fallback for bodies with no routing key: rotate over
// backends, healthy first.
func (b *Balancer) spreadOrder() []int {
	n := len(b.backends)
	first := int(b.spread.Add(1)-1) % n
	var healthy, ejected []int
	for i := 0; i < n; i++ {
		idx := (first + i) % n
		if b.backends[idx].healthy.Load() {
			healthy = append(healthy, idx)
		} else {
			ejected = append(ejected, idx)
		}
	}
	return append(healthy, ejected...)
}

// Handler returns the balancer's HTTP surface: the four /v1 serving
// endpoints proxied by routing key, /v1/models fanned on POST, and the
// balancer's own /lb/status, /healthz and /metrics.
func (b *Balancer) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, ep := range []string{"/v1/tune", "/v1/rank", "/v1/predict", "/v1/observe"} {
		mux.HandleFunc(ep, b.proxyRouted)
	}
	mux.HandleFunc("/v1/models", b.handleModels)
	mux.HandleFunc("/lb/status", b.handleStatus)
	mux.HandleFunc("/healthz", b.handleHealthz)
	mux.HandleFunc("/readyz", b.handleHealthz)
	mux.Handle("/metrics", b.cfg.Registry.Handler())
	return mux
}

// proxyRouted reads the body once, derives the routing key, and forwards to
// the key's owner, failing over in ring order on transport errors only —
// HTTP-level backpressure (429/503 + Retry-After) passes through untouched
// for the client's own retry logic, because re-sending a shed request to a
// second replica would defeat the backends' admission control.
func (b *Balancer) proxyRouted(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, b.cfg.MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	if int64(len(body)) > b.cfg.MaxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit", b.cfg.MaxBodyBytes))
		return
	}
	var order []int
	if key, ok := server.RoutingKey(body); ok {
		order = b.route(key)
		b.met.routed.With("hash").Inc()
	} else {
		// Unroutable bodies would 4xx on any replica; spread them so a
		// malformed-request flood cannot concentrate on one backend.
		order = b.spreadOrder()
		b.met.routed.With("spread").Inc()
	}
	b.forward(w, r, body, order)
	b.met.latency.Observe(time.Since(start).Seconds())
}

// forward tries the backends in order until one yields an HTTP response.
func (b *Balancer) forward(w http.ResponseWriter, r *http.Request, body []byte, order []int) {
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	var lastErr error
	for _, idx := range order {
		be := b.backends[idx]
		b.met.requests.With(be.url).Inc()
		req, err := http.NewRequestWithContext(r.Context(), r.Method, be.url+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		copyHeader(req.Header, r.Header)
		req.Header.Set("X-Request-ID", reqID)
		resp, err := b.client.Do(req)
		if err != nil {
			// Transport error: no response was received, so the endpoints'
			// idempotency makes a second send safe. Count it and fail over.
			b.met.errors.With(be.url).Inc()
			lastErr = err
			if r.Context().Err() != nil {
				return // client went away; nothing to answer
			}
			b.cfg.Logger.Warn("backend transport error",
				obs.F("backend", be.url), obs.F("path", r.URL.Path), obs.F("error", err.Error()))
			continue
		}
		defer resp.Body.Close()
		copyHeader(w.Header(), resp.Header)
		w.Header().Set("X-Request-ID", reqID)
		w.Header().Set("X-Backend", be.url)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusBadGateway, fmt.Sprintf("no backend reachable: %v", lastErr))
}

// handleModels fans POST (the SIGHUP-equivalent reload) across every
// backend and reports per-replica outcomes plus whether the fleet converged
// on one registry_generation. GET forwards to one healthy backend, since
// all replicas serve the same store.
func (b *Balancer) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		res := b.BroadcastReload(r.Context())
		w.Header().Set("Content-Type", "application/json")
		if !res.InLockstep {
			w.WriteHeader(http.StatusBadGateway)
		}
		json.NewEncoder(w).Encode(res)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, b.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	b.forward(w, r, body, b.spreadOrder())
}

// ReloadResult is one backend's answer to a broadcast reload.
type ReloadResult struct {
	Backend    string `json:"backend"`
	OK         bool   `json:"ok"`
	Generation string `json:"registry_generation,omitempty"`
	Version    int64  `json:"registry_version,omitempty"`
	Error      string `json:"error,omitempty"`
}

// BroadcastOutcome aggregates a fleet-wide reload.
type BroadcastOutcome struct {
	Results []ReloadResult `json:"results"`
	// InLockstep is true when every backend reloaded successfully and all
	// report the same registry_generation — the fleet serves one model set.
	InLockstep bool   `json:"in_lockstep"`
	Generation string `json:"registry_generation,omitempty"`
}

// BroadcastReload POSTs /v1/models to every configured backend (ejected
// ones included — a recovering replica must not be left on stale models)
// and checks the fleet converged on one content generation.
func (b *Balancer) BroadcastReload(ctx context.Context) BroadcastOutcome {
	out := BroadcastOutcome{InLockstep: true}
	type reply struct {
		idx int
		res ReloadResult
	}
	ch := make(chan reply, len(b.backends))
	for i, be := range b.backends {
		go func(i int, be *backend) {
			res := ReloadResult{Backend: be.url}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, be.url+"/v1/models", nil)
			if err != nil {
				res.Error = err.Error()
				ch <- reply{i, res}
				return
			}
			resp, err := b.client.Do(req)
			if err != nil {
				res.Error = err.Error()
				ch <- reply{i, res}
				return
			}
			defer resp.Body.Close()
			var decoded struct {
				Generation string `json:"registry_generation"`
				Version    int64  `json:"registry_version"`
				Error      string `json:"error"`
			}
			if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&decoded); err != nil {
				res.Error = fmt.Sprintf("decoding reload reply: %v", err)
				ch <- reply{i, res}
				return
			}
			if resp.StatusCode != http.StatusOK {
				res.Error = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, decoded.Error)
				ch <- reply{i, res}
				return
			}
			res.OK = true
			res.Generation = decoded.Generation
			res.Version = decoded.Version
			be.generation.Store(&decoded.Generation)
			ch <- reply{i, res}
		}(i, be)
	}
	results := make([]ReloadResult, len(b.backends))
	for range b.backends {
		rep := <-ch
		results[rep.idx] = rep.res
	}
	for _, res := range results {
		if !res.OK {
			out.InLockstep = false
			continue
		}
		switch {
		case out.Generation == "":
			out.Generation = res.Generation
		case out.Generation != res.Generation:
			out.InLockstep = false
		}
	}
	if out.Generation == "" {
		out.InLockstep = false
	}
	out.Results = results
	if !out.InLockstep {
		out.Generation = ""
	}
	return out
}

// backendStatus is one row of /lb/status.
type backendStatus struct {
	URL              string `json:"url"`
	Healthy          bool   `json:"healthy"`
	Generation       string `json:"registry_generation,omitempty"`
	ConsecutiveFails int    `json:"consecutive_failures,omitempty"`
	LastError        string `json:"last_error,omitempty"`
}

// handleStatus reports the fleet as the balancer sees it.
func (b *Balancer) handleStatus(w http.ResponseWriter, r *http.Request) {
	var out struct {
		Backends   []backendStatus `json:"backends"`
		Healthy    int             `json:"healthy"`
		InLockstep bool            `json:"in_lockstep"`
		RingSize   int             `json:"ring_size"`
	}
	out.InLockstep = true
	gen := ""
	for _, be := range b.backends {
		st := backendStatus{
			URL:              be.url,
			Healthy:          be.healthy.Load(),
			ConsecutiveFails: int(be.consecFail.Load()),
		}
		if g := be.generation.Load(); g != nil {
			st.Generation = *g
		}
		if e := be.lastErr.Load(); e != nil {
			st.LastError = *e
		}
		if st.Healthy {
			out.Healthy++
			switch {
			case st.Generation == "":
				out.InLockstep = false
			case gen == "":
				gen = st.Generation
			case gen != st.Generation:
				out.InLockstep = false
			}
		}
		out.Backends = append(out.Backends, st)
	}
	if out.Healthy == 0 {
		out.InLockstep = false
	}
	out.RingSize = len(b.ring)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleHealthz answers for the balancer itself: healthy while at least one
// backend is serving.
func (b *Balancer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := 0
	for _, be := range b.backends {
		if be.healthy.Load() {
			healthy++
		}
	}
	code := http.StatusOK
	if healthy == 0 {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":   map[bool]string{true: "ok", false: "no backends"}[healthy > 0],
		"backends": len(b.backends),
		"healthy":  healthy,
	})
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		// Hop-by-hop headers stay on their hop.
		switch k {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade", "Te", "Trailer":
			continue
		}
		dst[k] = vs
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
