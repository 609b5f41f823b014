package lb

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// newStoreDir seeds a temp store with the committed fixture model under
// "default", so every backend in a test fleet serves the same content.
func newStoreDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base, err := store.LoadPath("../store/testdata/tiny")
	if err != nil {
		t.Fatal(err)
	}
	a := *base
	a.Name = "default"
	if err := st.Save(&a); err != nil {
		t.Fatal(err)
	}
	return dir
}

// startBackend runs a real stencil server over dir and returns its base URL.
func startBackend(t *testing.T, dir string) string {
	t.Helper()
	s, err := server.New(server.Config{ModelDir: dir, CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func newBalancer(t *testing.T, cfg Config) *Balancer {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func postTune(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestConsistentRoutingSplitsHotSet is the tentpole contract: repeating a
// request must hit the same replica's cache (X-Cache: hit on the second
// send proves the key landed where its entry lives), while distinct keys
// spread over the whole fleet.
func TestConsistentRoutingSplitsHotSet(t *testing.T) {
	dir := newStoreDir(t)
	urls := []string{startBackend(t, dir), startBackend(t, dir), startBackend(t, dir)}
	b := newBalancer(t, Config{Backends: urls, HealthInterval: time.Hour})
	h := b.Handler()

	for n := 40; n < 72; n++ {
		body := fmt.Sprintf(`{"kernel":"laplacian","size":"%dx%dx%d"}`, n, n, n)
		first := postTune(t, h, body)
		if first.Code != http.StatusOK {
			t.Fatalf("first tune(%d): HTTP %d: %s", n, first.Code, first.Body.String())
		}
		if got := first.Header().Get("X-Cache"); got != "miss" {
			t.Fatalf("first tune(%d) X-Cache = %q, want miss", n, got)
		}
		second := postTune(t, h, body)
		if second.Code != http.StatusOK {
			t.Fatalf("second tune(%d): HTTP %d", n, second.Code)
		}
		// The consistent hash must route the repeat to the replica that
		// cached the first answer.
		if got := second.Header().Get("X-Cache"); got != "hit" {
			t.Fatalf("second tune(%d) X-Cache = %q, want hit (routed to %s, first went to %s)",
				n, got, second.Header().Get("X-Backend"), first.Header().Get("X-Backend"))
		}
		if fb, sb := first.Header().Get("X-Backend"), second.Header().Get("X-Backend"); fb != sb {
			t.Fatalf("tune(%d) routed to %s then %s", n, fb, sb)
		}
	}

	// 32 distinct keys over 3 replicas: every backend must own a share.
	for _, u := range urls {
		if got := b.cfg.Registry.Value("stencillb_backend_requests_total", u); got == 0 {
			t.Fatalf("backend %s received no traffic; spread is broken", u)
		}
	}
	if got := b.cfg.Registry.Value("stencillb_routed_total", "hash"); got != 64 {
		t.Fatalf("hash-routed count = %v, want 64", got)
	}
}

// TestEjectAndReadmit drives the full health lifecycle: a replica whose
// /readyz starts failing is ejected after EjectAfter consecutive probe
// misses, traffic keeps flowing to the survivor, and the replica is
// readmitted after it recovers.
func TestEjectAndReadmit(t *testing.T) {
	dir := newStoreDir(t)
	good := startBackend(t, dir)

	s, err := server.New(server.Config{ModelDir: dir, CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	inner := s.Handler()
	var failReadyz atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failReadyz.Load() && r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	b := newBalancer(t, Config{
		Backends:       []string{good, flaky.URL},
		HealthInterval: 10 * time.Millisecond,
		EjectAfter:     2,
		ReadmitAfter:   2,
	})
	h := b.Handler()

	healthyCount := func() int {
		n := 0
		for _, be := range b.backends {
			if be.healthy.Load() {
				n++
			}
		}
		return n
	}
	waitFor(t, "both backends healthy", func() bool { return healthyCount() == 2 })

	failReadyz.Store(true)
	waitFor(t, "flaky backend ejection", func() bool { return healthyCount() == 1 })
	if got := b.cfg.Registry.Value("stencillb_ejections_total", flaky.URL); got != 1 {
		t.Fatalf("ejections for flaky backend = %v, want 1", got)
	}
	if got := b.cfg.Registry.Value("stencillb_backend_up", flaky.URL); got != 0 {
		t.Fatalf("up gauge for ejected backend = %v, want 0", got)
	}

	// Every key routes to the survivor while the fleet is degraded.
	for n := 40; n < 56; n++ {
		w := postTune(t, h, fmt.Sprintf(`{"kernel":"laplacian","size":"%dx%dx%d"}`, n, n, n))
		if w.Code != http.StatusOK {
			t.Fatalf("tune(%d) during ejection: HTTP %d: %s", n, w.Code, w.Body.String())
		}
		if be := w.Header().Get("X-Backend"); be != good {
			t.Fatalf("tune(%d) routed to ejected backend %s", n, be)
		}
	}

	// /lb/status reflects the degraded fleet.
	req := httptest.NewRequest(http.MethodGet, "/lb/status", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var status struct {
		Healthy  int `json:"healthy"`
		Backends []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
		} `json:"backends"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatalf("decoding /lb/status: %v: %s", err, rec.Body.String())
	}
	if status.Healthy != 1 || len(status.Backends) != 2 {
		t.Fatalf("/lb/status healthy=%d backends=%d, want 1/2", status.Healthy, len(status.Backends))
	}

	failReadyz.Store(false)
	waitFor(t, "flaky backend readmission", func() bool { return healthyCount() == 2 })
	if got := b.cfg.Registry.Value("stencillb_readmissions_total", flaky.URL); got != 1 {
		t.Fatalf("readmissions for flaky backend = %v, want 1", got)
	}
}

// TestTransportFailover pins the retry policy: a connection-refused backend
// is skipped transparently (the endpoints are idempotent and no response
// was received), so every request still answers 200 from a live replica.
func TestTransportFailover(t *testing.T) {
	dir := newStoreDir(t)
	good := startBackend(t, dir)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore

	// Health probing is parked so the dead backend stays in rotation: this
	// exercises per-request failover, not ejection.
	b := newBalancer(t, Config{Backends: []string{good, deadURL}, HealthInterval: time.Hour})
	h := b.Handler()
	for n := 40; n < 72; n++ {
		w := postTune(t, h, fmt.Sprintf(`{"kernel":"laplacian","size":"%dx%dx%d"}`, n, n, n))
		if w.Code != http.StatusOK {
			t.Fatalf("tune(%d) with a dead backend in rotation: HTTP %d: %s", n, w.Code, w.Body.String())
		}
	}
	if got := b.cfg.Registry.Value("stencillb_backend_errors_total", deadURL); got == 0 {
		t.Fatal("no transport errors recorded for the dead backend; the hash never routed there?")
	}
}

// TestBackpressurePassesThrough pins what failover must NOT do: an
// HTTP-level shed (429 + Retry-After) reaches the client untouched instead
// of being replayed against another replica, and X-Request-ID survives both
// directions.
func TestBackpressurePassesThrough(t *testing.T) {
	var hits atomic.Int32
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"ready":true}`))
			return
		}
		hits.Add(1)
		w.Header().Set("Retry-After", "7")
		w.Header().Set("X-Seen-Request-ID", r.Header.Get("X-Request-ID"))
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"shedding load"}`))
	}))
	t.Cleanup(shedding.Close)

	b := newBalancer(t, Config{Backends: []string{shedding.URL, shedding.URL}, HealthInterval: time.Hour})
	req := httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(`{"kernel":"laplacian","size":"64x64x64"}`))
	req.Header.Set("X-Request-ID", "req-abc-123")
	w := httptest.NewRecorder()
	b.Handler().ServeHTTP(w, req)

	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("shed response code = %d, want 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want 7 passed through", got)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("backend hit %d times for one shed request; 429 must not be replayed", got)
	}
	if got := w.Header().Get("X-Seen-Request-ID"); got != "req-abc-123" {
		t.Fatalf("backend saw X-Request-ID %q, want req-abc-123 forwarded", got)
	}
	if got := w.Header().Get("X-Request-ID"); got != "req-abc-123" {
		t.Fatalf("response X-Request-ID = %q, want req-abc-123", got)
	}
}

// TestUnroutableBodySpreads checks the fallback path: a body with no
// routing key still gets an answer (the backend's 400) and is counted as
// spread-routed.
func TestUnroutableBodySpreads(t *testing.T) {
	dir := newStoreDir(t)
	b := newBalancer(t, Config{Backends: []string{startBackend(t, dir)}, HealthInterval: time.Hour})
	w := postTune(t, b.Handler(), `{"kernel":"no-such-kernel","size":"64x64x64"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unroutable body: HTTP %d, want the backend's 400", w.Code)
	}
	if got := b.cfg.Registry.Value("stencillb_routed_total", "spread"); got != 1 {
		t.Fatalf("spread-routed count = %v, want 1", got)
	}
}

// TestBroadcastReload drives the fleet-wide SIGHUP equivalent: POST
// /v1/models on the balancer reloads every replica and reports lockstep on
// the shared content generation.
func TestBroadcastReload(t *testing.T) {
	dir := newStoreDir(t)
	urls := []string{startBackend(t, dir), startBackend(t, dir)}
	b := newBalancer(t, Config{Backends: urls, HealthInterval: time.Hour})

	req := httptest.NewRequest(http.MethodPost, "/v1/models", nil)
	w := httptest.NewRecorder()
	b.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("broadcast reload: HTTP %d: %s", w.Code, w.Body.String())
	}
	var out BroadcastOutcome
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.InLockstep || out.Generation == "" {
		t.Fatalf("fleet not in lockstep after broadcast: %+v", out)
	}
	if len(out.Results) != 2 {
		t.Fatalf("results for %d backends, want 2", len(out.Results))
	}
	for _, res := range out.Results {
		if !res.OK || res.Version != 2 || res.Generation != out.Generation {
			t.Fatalf("backend %s reload result %+v, want ok version=2 generation=%s",
				res.Backend, res, out.Generation)
		}
	}

	// GET /v1/models proxies to a replica and reports the same generation.
	getReq := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	getRec := httptest.NewRecorder()
	b.Handler().ServeHTTP(getRec, getReq)
	var listing struct {
		Generation string `json:"registry_generation"`
	}
	if err := json.Unmarshal(getRec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Generation != out.Generation {
		t.Fatalf("GET /v1/models generation %q != broadcast generation %q", listing.Generation, out.Generation)
	}
}

// TestAllBackendsDown: with nothing reachable the balancer answers 502 with
// a Retry-After, not a hang or a panic.
func TestAllBackendsDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	b := newBalancer(t, Config{Backends: []string{deadURL}, HealthInterval: time.Hour})
	w := postTune(t, b.Handler(), `{"kernel":"laplacian","size":"64x64x64"}`)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("all-down: HTTP %d, want 502", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("all-down 502 carries no Retry-After")
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("all-down error envelope: %v / %s", err, w.Body.String())
	}
}

// TestRingIsStable pins ring determinism: the same fleet builds the same
// ring in any process, so a balancer restart does not reshuffle the
// keyspace.
func TestRingIsStable(t *testing.T) {
	backends := []*backend{{url: "http://a:1"}, {url: "http://b:2"}, {url: "http://c:3"}}
	r1 := buildRing(backends, 64)
	r2 := buildRing(backends, 64)
	if len(r1) != 3*64 {
		t.Fatalf("ring size %d, want %d", len(r1), 3*64)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("ring entry %d differs between identical builds: %+v vs %+v", i, r1[i], r2[i])
		}
	}
	// Ownership shares should be roughly balanced with 64 vnodes each.
	counts := map[int]int{}
	for _, e := range r1 {
		counts[e.backend]++
	}
	for i, c := range counts {
		if c != 64 {
			t.Fatalf("backend %d has %d ring points, want 64", i, c)
		}
	}
}

func TestReadAllBodyLimit(t *testing.T) {
	dir := newStoreDir(t)
	b := newBalancer(t, Config{
		Backends:       []string{startBackend(t, dir)},
		HealthInterval: time.Hour,
		MaxBodyBytes:   128,
	})
	big := `{"kernel":"laplacian","size":"64x64x64","pad":"` + strings.Repeat("x", 256) + `"}`
	w := postTune(t, b.Handler(), big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", w.Code)
	}
	if _, err := io.ReadAll(w.Body); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultBodyCapMatchesReplicas: a default-config lb accepts every body
// a default replica accepts. A body just over 1 MiB reaches the backend
// intact; one over server.DefaultMaxBodyBytes gets 413 without reaching it.
func TestDefaultBodyCapMatchesReplicas(t *testing.T) {
	var hits atomic.Int32
	var gotLen atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Write([]byte(`{"ready":true}`))
			return
		}
		body, _ := io.ReadAll(r.Body)
		hits.Add(1)
		gotLen.Store(int64(len(body)))
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(stub.Close)
	b := newBalancer(t, Config{Backends: []string{stub.URL}, HealthInterval: time.Hour})

	padded := func(n int) string {
		const head, tail = `{"kernel":"laplacian","size":"64x64x64","pad":"`, `"}`
		return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
	}
	const overOneMiB = 1<<20 + 1
	if w := postTune(t, b.Handler(), padded(overOneMiB)); w.Code != http.StatusOK {
		t.Fatalf("%d-byte body: HTTP %d, want the backend's 200: %s", overOneMiB, w.Code, w.Body.String())
	}
	if hits.Load() != 1 || gotLen.Load() != overOneMiB {
		t.Fatalf("backend saw %d requests, last %d bytes; want 1 of %d", hits.Load(), gotLen.Load(), overOneMiB)
	}
	if w := postTune(t, b.Handler(), padded(server.DefaultMaxBodyBytes+1)); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body over the shared cap: HTTP %d, want 413", w.Code)
	}
	if hits.Load() != 1 {
		t.Fatal("an over-cap body reached the backend")
	}
}

// TestNegativeBodyCapIsTheDefault: -max-body -1 means the shared 16 MiB
// default on a replica and on the lb alike, so neither takes a body the
// other would refuse. Both answer a body one byte over the default with 413,
// and the lb does not forward it.
func TestNegativeBodyCapIsTheDefault(t *testing.T) {
	s, err := server.New(server.Config{ModelDir: "../store/testdata", MaxBodyBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	var hits atomic.Int32
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			hits.Add(1)
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(replica.Close)
	b := newBalancer(t, Config{Backends: []string{replica.URL}, HealthInterval: time.Hour, MaxBodyBytes: -1})

	const head, tail = `{"kernel":"laplacian","size":"64x64x64","pad":"`, `"}`
	over := head + strings.Repeat("x", server.DefaultMaxBodyBytes+1-len(head)-len(tail)) + tail
	if w := postTune(t, s.Handler(), over); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("replica with -1: %d-byte body got HTTP %d, want 413", len(over), w.Code)
	}
	if w := postTune(t, b.Handler(), over); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("lb with -1: %d-byte body got HTTP %d, want 413", len(over), w.Code)
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("the lb forwarded an over-cap body (%d requests reached the replica)", n)
	}
}
