package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file is the server half of the resilience suite (see also
// internal/faultinject): admission control under measure floods, shed and
// recovery semantics, readiness reporting, and teardown idempotence. All
// of it runs under -race in CI.

// measureBody returns a measure-mode predict request with a distinct small
// size (grids stay under ~150x150 so each measurement is quick) so flood
// requests don't share cache keys or coalesce for i < 97*97.
func measureBody(i int) string {
	return fmt.Sprintf(`{"model":"tiny","kernel":"blur","size":"%dx%d","vectors":[{"bx":16,"by":16,"u":0,"c":1}],"mode":"measure"}`,
		48+i%97, 48+(i/97)%97)
}

// TestMeasureQueueShedsAndRecovers drives the admission gate
// deterministically: with depth 2 and both slots held open by gated
// evaluations, a third measure request must shed 503 with Retry-After and
// /readyz must report saturation; after release the shed traffic succeeds
// again. No timing is involved — the hook holds slots, the test observes.
func TestMeasureQueueShedsAndRecovers(t *testing.T) {
	s, err := New(Config{ModelDir: fixtureModelDir, MeasureQueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	const depth = 2
	admitted := make(chan struct{}, depth)
	release := make(chan struct{})
	s.testHookMeasure = func() {
		admitted <- struct{}{}
		<-release
	}

	var wg sync.WaitGroup
	codes := make([]int, depth)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(measureBody(i))))
			codes[i] = w.Code
		}(i)
	}
	for i := 0; i < depth; i++ {
		select {
		case <-admitted:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d measure requests were admitted", i, depth)
		}
	}
	if got := s.MeasureQueueDepth(); got != depth {
		t.Fatalf("queue depth with both slots held = %d, want %d", got, depth)
	}

	// Saturated: the next measure request is shed immediately, with an
	// honest Retry-After, and without waiting on the busy slots.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(measureBody(100))))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("request past queue depth: status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed response lacks Retry-After")
	}
	if n := int64(s.ObsRegistry().Value("stencilserve_measure_shed_total")); n != 1 {
		t.Errorf("measure_shed = %d, want 1", n)
	}

	// Cheap traffic is untouched by the saturated measure queue.
	cheap := httptest.NewRecorder()
	h.ServeHTTP(cheap, httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(
		`{"model":"tiny","kernel":"laplacian","size":"100x100x100"}`)))
	if cheap.Code != http.StatusOK {
		t.Fatalf("cheap tune during measure saturation: status %d, want 200", cheap.Code)
	}

	// Readiness reflects saturation; liveness does not.
	ready := httptest.NewRecorder()
	h.ServeHTTP(ready, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if ready.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz with saturated queue: status %d, want 503", ready.Code)
	}
	live := httptest.NewRecorder()
	h.ServeHTTP(live, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if live.Code != http.StatusOK {
		t.Errorf("/healthz with saturated queue: status %d, want 200 (alive)", live.Code)
	}

	// Load subsides: the held measurements finish, and shed traffic now
	// succeeds — the 503 was honest back-pressure, not a dead server.
	close(release)
	s.testHookMeasure = nil
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("admitted measure request %d: status %d, want 200", i, code)
		}
	}
	again := httptest.NewRecorder()
	h.ServeHTTP(again, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(measureBody(100))))
	if again.Code != http.StatusOK {
		t.Fatalf("shed request retried after load subsided: status %d, want 200", again.Code)
	}
	if got := s.MeasureQueueDepth(); got != 0 {
		t.Errorf("queue depth after drain = %d, want 0", got)
	}
	ready2 := httptest.NewRecorder()
	h.ServeHTTP(ready2, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if ready2.Code != http.StatusOK {
		t.Errorf("/readyz after drain: status %d, want 200", ready2.Code)
	}
}

// TestCachedTuneLatencyUnderMeasureFlood is the starvation bound of the
// acceptance criteria: a flood of real measure-mode requests (which
// serialize on the shared measurer) must not push the cached /v1/tune p99
// past 10x its unloaded value. The comparison uses an in-process handler,
// so it measures the server's own queuing behavior, not kernel TCP noise.
func TestCachedTuneLatencyUnderMeasureFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements under load")
	}
	s, err := New(Config{ModelDir: fixtureModelDir, MeasureQueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	cached := `{"model":"tiny","kernel":"laplacian","size":"100x100x100"}`
	prime := httptest.NewRecorder()
	h.ServeHTTP(prime, httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(cached)))
	if prime.Code != http.StatusOK {
		t.Fatalf("priming tune: status %d", prime.Code)
	}

	const samples = 400
	sample := func() time.Duration {
		start := time.Now()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(cached)))
		d := time.Since(start)
		if w.Code != http.StatusOK {
			t.Fatalf("cached tune: status %d", w.Code)
		}
		if got := w.Header().Get("X-Cache"); got != "hit" {
			t.Fatalf("cached tune X-Cache = %q, want hit", got)
		}
		return d
	}
	p99 := func(ds []time.Duration) time.Duration {
		sorted := append([]time.Duration(nil), ds...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[len(sorted)*99/100]
	}

	unloaded := make([]time.Duration, samples)
	for i := range unloaded {
		unloaded[i] = sample()
	}

	// Flood: 8 clients hammer measure-mode predicts with distinct keys
	// (no cache hits, no coalescing) until told to stop. The admission
	// gate sheds what the queue can't hold; a shed client backs off 1ms
	// (a polite retry, far below the advertised Retry-After) so the flood
	// keeps the queue saturated without degenerating into a busy-spin.
	stop := make(chan struct{})
	var floodWG sync.WaitGroup
	var floodIdx, floodSent, floodShed atomic.Int64
	for c := 0; c < 8; c++ {
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict",
					strings.NewReader(measureBody(int(floodIdx.Add(1))))))
				floodSent.Add(1)
				if w.Code == http.StatusServiceUnavailable {
					floodShed.Add(1)
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}

	loaded := make([]time.Duration, samples)
	for i := range loaded {
		loaded[i] = sample()
		time.Sleep(200 * time.Microsecond) // spread samples across the flood
	}
	close(stop)
	floodWG.Wait()

	up99, lp99 := p99(unloaded), p99(loaded)
	t.Logf("cached tune p99: unloaded %v, under measure flood %v (flood sent %d, shed %d)",
		up99, lp99, floodSent.Load(), floodShed.Load())
	// The 1ms floor absorbs scheduler noise when the unloaded p99 is a
	// handful of microseconds; the acceptance bound is the 10x ratio.
	bound := 10 * up99
	if bound < time.Millisecond {
		bound = time.Millisecond
	}
	if lp99 > bound {
		t.Errorf("cached tune p99 under measure flood = %v, exceeds bound %v (10x unloaded %v)", lp99, bound, up99)
	}
	if floodSent.Load() > 50 && floodShed.Load() == 0 {
		t.Logf("note: flood of %d requests saw no sheds (queue drained fast); shedding asserted deterministically elsewhere", floodSent.Load())
	}
}

// TestCloseAuditChainIdempotent: Close after a real measurement releases
// the measurer exactly once, tolerates double Close, and refuses to
// resurrect the pool afterwards.
func TestCloseAuditChainIdempotent(t *testing.T) {
	s, err := New(Config{ModelDir: fixtureModelDir})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(measureBody(0))))
	if w.Code != http.StatusOK {
		t.Fatalf("measure predict: status %d: %s", w.Code, w.Body.String())
	}
	if s.measurer == nil {
		t.Fatal("measure request did not start the measurer")
	}
	s.Close()
	if s.measurer != nil {
		t.Error("Close left the measurer alive")
	}
	s.Close() // second Close must be a no-op, not a double release
	if m := s.getMeasurer(); m != nil {
		t.Error("getMeasurer after Close resurrected the pool")
	}

	// A straggler measure request after Close fails cleanly, not fatally.
	w2 := httptest.NewRecorder()
	h.ServeHTTP(w2, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(measureBody(1))))
	if w2.Code == http.StatusOK {
		t.Errorf("measure predict after Close: status %d, want an error", w2.Code)
	}
}

// TestReadyzDraining: StartDraining flips readiness while liveness and
// serving continue — the graceful-shutdown window a balancer needs.
func TestReadyzDraining(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/readyz before draining: status %d, want 200", w.Code)
	}

	s.StartDraining()
	w2 := httptest.NewRecorder()
	h.ServeHTTP(w2, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w2.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: status %d, want 503", w2.Code)
	}
	live := httptest.NewRecorder()
	h.ServeHTTP(live, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if live.Code != http.StatusOK {
		t.Errorf("/healthz while draining: status %d, want 200", live.Code)
	}
	serve := httptest.NewRecorder()
	h.ServeHTTP(serve, httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(
		`{"model":"tiny","kernel":"laplacian","size":"96x96x96"}`)))
	if serve.Code != http.StatusOK {
		t.Errorf("tune while draining: status %d, want 200 (drain serves in-flight)", serve.Code)
	}
}

// TestBodyLimit413: the configured cap rejects oversized bodies with an
// explicit 413 JSON error, and the default cap still admits normal
// requests.
func TestBodyLimit413(t *testing.T) {
	s, err := New(Config{ModelDir: fixtureModelDir, MaxBodyBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	big := fmt.Sprintf(`{"model":"tiny","kernel":"laplacian","size":"64x64x64","junk":%q}`,
		strings.Repeat("x", 1024))
	w, resp := postJSON(t, h, "/v1/tune", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %v", w.Code, resp)
	}
	if resp["error"] == "" {
		t.Errorf("413 response lacks a JSON error: %v", resp)
	}

	w2, _ := postJSON(t, h, "/v1/tune", `{"model":"tiny","kernel":"laplacian","size":"64x64x64"}`)
	if w2.Code != http.StatusOK {
		t.Errorf("normal body under the cap: status %d, want 200", w2.Code)
	}
}
