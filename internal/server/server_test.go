package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	stenciltune "repro"
	"repro/internal/core"
	"repro/internal/stencil"
	"repro/internal/store"
	"repro/internal/tunespace"
)

// fixtureModelDir is the store root committed for the golden-format tests;
// it holds one artifact named "tiny".
const fixtureModelDir = "../store/testdata"

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{ModelDir: fixtureModelDir, CacheSize: 256})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func postJSON(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var out map[string]any
	if w.Body.Len() > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: undecodable response %q: %v", path, w.Body.String(), err)
		}
	}
	return w, out
}

func vectorFrom(t *testing.T, m map[string]any, field string) tunespace.Vector {
	t.Helper()
	b, ok := m[field].(map[string]any)
	if !ok {
		t.Fatalf("response has no %q object: %v", field, m)
	}
	iv := func(k string) int {
		f, _ := b[k].(float64)
		return int(f)
	}
	v := tunespace.Vector{Bx: iv("bx"), By: iv("by"), Bz: iv("bz"), U: iv("u"), C: iv("c"), K: iv("k")}
	if v.Bz == 0 {
		v.Bz = 1
	}
	if v.K == 0 {
		v.K = 1
	}
	return v
}

// TestTuneMatchesInProcessAndCaches is the train-once/serve-many acceptance
// path: the served /v1/tune answer for an unseen instance must equal what an
// in-process Tuner around the same stored model picks, the repeat request
// must be answered by the LRU with zero additional inference, and the
// counters must say so.
func TestTuneMatchesInProcessAndCaches(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	// 100³ is none of the training sizes (64/128/256) — an unseen instance.
	body := `{"model":"tiny","kernel":"laplacian","size":"100x100x100"}`
	w, resp := postJSON(t, h, "/v1/tune", body)
	if w.Code != http.StatusOK {
		t.Fatalf("tune: status %d: %v", w.Code, resp)
	}
	if got := w.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	served := vectorFrom(t, resp, "best")

	art, err := store.LoadPath(fixtureModelDir + "/tiny")
	if err != nil {
		t.Fatal(err)
	}
	k, err := stencil.KernelByName("laplacian")
	if err != nil {
		t.Fatal(err)
	}
	q := stencil.Instance{Kernel: k, Size: stencil.Size3D(100, 100, 100)}
	want, _, err := core.New(art.Model).TunePredefined(q)
	if err != nil {
		t.Fatal(err)
	}
	if served != want {
		t.Errorf("served best %v differs from in-process tuner %v", served, want)
	}
	if n := int64(s.ObsRegistry().Value("stencilserve_inferences_total")); n != 1 {
		t.Errorf("inferences after first request = %d, want 1", n)
	}

	// Cached repeat: zero new inference.
	w2, resp2 := postJSON(t, h, "/v1/tune", body)
	if w2.Code != http.StatusOK {
		t.Fatalf("repeat tune: status %d", w2.Code)
	}
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeat request X-Cache = %q, want hit", got)
	}
	if v := vectorFrom(t, resp2, "best"); v != served {
		t.Errorf("cached answer %v differs from first %v", v, served)
	}
	if n := int64(s.ObsRegistry().Value("stencilserve_inferences_total")); n != 1 {
		t.Errorf("inferences after cached repeat = %d, want still 1", n)
	}
	if n := int64(s.ObsRegistry().Value("stencilserve_cache_hits_total")); n != 1 {
		t.Errorf("cache_hits = %d, want 1", n)
	}

	// Explicit "mode":"sim" normalizes to the same cache key as the default.
	w2b, _ := postJSON(t, h, "/v1/tune", `{"model":"tiny","kernel":"laplacian","size":"100x100x100","mode":"sim"}`)
	if got := w2b.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("explicit mode=sim X-Cache = %q, want hit (mode normalization)", got)
	}

	// A different model name but identical kernel *structure* under another
	// name shares nothing across models; same model + renamed kernel does.
	renamed := `{"model":"tiny","kernel":{"name":"other","dtype":"double","offsets":[[0,0,0],[1,0,0],[-1,0,0],[0,1,0],[0,-1,0],[0,0,1],[0,0,-1]]},"size":"100x100x100"}`
	w3, _ := postJSON(t, h, "/v1/tune", renamed)
	if w3.Code != http.StatusOK {
		t.Fatalf("renamed kernel: status %d: %s", w3.Code, w3.Body.String())
	}
	if got := w3.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("structurally identical kernel X-Cache = %q, want hit (structural cache key)", got)
	}
}

// TestCoalescing drives a thundering herd of identical uncached requests and
// asserts they collapse into exactly one inference, with every other request
// parked on the singleflight and answered with the shared bytes. Run under
// -race in CI.
func TestCoalescing(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	const herd = 20
	release := make(chan struct{})
	s.testHookInfer = func() { <-release }

	body := `{"model":"tiny","kernel":"gradient","size":"96x96x96"}`
	var wg sync.WaitGroup
	results := make([]string, herd)
	codes := make([]int, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			codes[i] = w.Code
			results[i] = w.Body.String()
		}(i)
	}

	// Wait until every other request is parked behind the gated inference,
	// then release it.
	deadline := time.Now().Add(10 * time.Second)
	for s.FlightWaiting() < herd-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests coalesced before timeout", s.FlightWaiting(), herd-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := 0; i < herd; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], results[i])
		}
		if results[i] != results[0] {
			t.Errorf("request %d got different bytes than request 0", i)
		}
	}
	if n := int64(s.ObsRegistry().Value("stencilserve_inferences_total")); n != 1 {
		t.Errorf("herd of %d cost %d inferences, want exactly 1", herd, n)
	}
	if n := int64(s.ObsRegistry().Value("stencilserve_coalesced_total")); n != herd-1 {
		t.Errorf("coalesced = %d, want %d", n, herd-1)
	}
}

// TestCancelledLeaderDoesNotPoisonWaiters: when the flight leader's client
// vanishes mid-compute, a healthy coalesced waiter must retry under its own
// context and still get a 200, while the leader's request fails 503.
func TestCancelledLeaderDoesNotPoisonWaiters(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	started := make(chan struct{}, 2)
	release := make(chan struct{})
	var hookCalls atomic.Int64
	s.testHookInfer = func() {
		if hookCalls.Add(1) == 1 {
			started <- struct{}{}
			<-release // first (leader) inference held open until cancelled
		}
	}

	// topk makes the compute context-sensitive: a cancelled fan-out yields
	// +Inf sentinels and the handler refuses to serve the poisoned result.
	body := `{"model":"tiny","kernel":"divergence","size":"80x80x80","topk":4}`
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()

	var wg sync.WaitGroup
	var leaderCode, waiterCode int
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(body)).WithContext(leaderCtx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		leaderCode = w.Code
	}()
	<-started // leader is inside its gated inference

	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		waiterCode = w.Code
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.FlightWaiting() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked on the flight")
		}
		time.Sleep(time.Millisecond)
	}

	cancelLeader()
	close(release)
	wg.Wait()

	if leaderCode != http.StatusServiceUnavailable {
		t.Errorf("cancelled leader: status %d, want 503", leaderCode)
	}
	if waiterCode != http.StatusOK {
		t.Errorf("healthy waiter: status %d, want 200 via flight retry", waiterCode)
	}
	if n := int64(s.ObsRegistry().Value("stencilserve_flight_retries_total")); n != 1 {
		t.Errorf("flight_retries = %d, want 1", n)
	}
}

// TestTrainSaveServeEndToEnd exercises the full train-once/serve-many flow
// through the public API: train, SaveModel, serve the store, tune.
func TestTrainSaveServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	model, _, err := stenciltune.Train(stenciltune.TrainOptions{TrainingPoints: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := stenciltune.SaveModel(dir, "", model); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{ModelDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	names, def := s.Models()
	if def != "default" || len(names) != 1 {
		t.Fatalf("registry = %v default %q, want [default]", names, def)
	}

	w, resp := postJSON(t, s.Handler(), "/v1/tune", `{"kernel":"blur","size":"300x300"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("tune: status %d: %v", w.Code, resp)
	}
	served := vectorFrom(t, resp, "best")

	q := stenciltune.Instance{Kernel: mustKernel(t, "blur"), Size: stenciltune.Size2D(300, 300)}
	want, _, err := model.Tuner().TunePredefined(q)
	if err != nil {
		t.Fatal(err)
	}
	if served != want {
		t.Errorf("served %v, in-process tuner %v", served, want)
	}
}

func mustKernel(t *testing.T, name string) *stencil.Kernel {
	t.Helper()
	k, err := stencil.KernelByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestRankPredictConsistency(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	cands := `[{"bx":32,"by":32,"bz":4,"u":2,"c":2},{"bx":8,"by":512,"bz":2,"u":0,"c":1},{"bx":64,"by":16,"bz":8,"u":4,"c":4}]`
	w, rank := postJSON(t, h, "/v1/rank",
		`{"model":"tiny","kernel":"laplacian","size":"128x128x128","candidates":`+cands+`,"return_scores":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("rank: status %d: %v", w.Code, rank)
	}
	order, ok := rank["order"].([]any)
	if !ok || len(order) != 3 {
		t.Fatalf("rank order = %v, want 3 indices", rank["order"])
	}
	scores, ok := rank["scores"].([]any)
	if !ok || len(scores) != 3 {
		t.Fatalf("rank scores = %v, want 3 values", rank["scores"])
	}

	w2, pred := postJSON(t, h, "/v1/predict",
		`{"model":"tiny","kernel":"laplacian","size":"128x128x128","vectors":`+cands+`,"mode":"score"}`)
	if w2.Code != http.StatusOK {
		t.Fatalf("predict: status %d: %v", w2.Code, pred)
	}
	pvals := pred["values"].([]any)
	for i := range scores {
		if scores[i] != pvals[i] {
			t.Errorf("rank score[%d] = %v, predict score = %v", i, scores[i], pvals[i])
		}
	}
	// The best-ranked index must hold the highest score.
	bestIdx := int(order[0].(float64))
	for i := range pvals {
		if pvals[i].(float64) > pvals[bestIdx].(float64) {
			t.Errorf("order[0]=%d is not the argmax score", bestIdx)
		}
	}

	// Simulated runtime prediction: positive finite seconds, and repeat is
	// served from cache.
	w3, sim := postJSON(t, h, "/v1/predict",
		`{"model":"tiny","kernel":"laplacian","size":"128x128x128","vectors":`+cands+`,"mode":"sim"}`)
	if w3.Code != http.StatusOK {
		t.Fatalf("predict sim: status %d: %v", w3.Code, sim)
	}
	for i, v := range sim["values"].([]any) {
		if sec := v.(float64); sec <= 0 || sec > 1e6 {
			t.Errorf("simulated runtime[%d] = %v, want positive seconds", i, sec)
		}
	}
	w4, _ := postJSON(t, h, "/v1/predict",
		`{"model":"tiny","kernel":"laplacian","size":"128x128x128","vectors":`+cands+`,"mode":"sim"}`)
	if got := w4.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeated predict X-Cache = %q, want hit", got)
	}
}

func TestModelsHealthzMetrics(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	get := func(path string) map[string]any {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, w.Code)
		}
		var out map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return out
	}

	models := get("/v1/models")
	if models["default"] != "tiny" {
		t.Errorf("default model = %v, want tiny", models["default"])
	}
	list := models["models"].([]any)
	if len(list) != 1 {
		t.Fatalf("models list = %v, want 1 entry", list)
	}
	entry := list[0].(map[string]any)
	if entry["name"] != "tiny" || entry["dataset_fingerprint"] == "" || entry["content_hash"] == "" {
		t.Errorf("model entry lacks provenance: %v", entry)
	}

	health := get("/healthz")
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v", health["status"])
	}
	if health["version"] == "" || health["go"] == "" {
		t.Errorf("healthz lacks build identity: %v", health)
	}

	postJSON(t, h, "/v1/tune", `{"model":"tiny","kernel":"edge","size":"256x256"}`)
	if n := s.ObsRegistry().Value("stencilserve_inferences_total"); n < 1 {
		t.Errorf("inferences after a request = %v", n)
	}
}

// malformedSizes break the size grammar: TestMalformedSizesRejected and
// the FuzzInstanceRequest seeds use them.
var malformedSizes = []string{
	"64x64x64junk", "64x64x64x64", "64x64x", "x64x64", "64xx64", "64",
	"64x64 ", " 64x64", "+64x64x64", "64x-64", "0x64x64", "64X64X64",
	"64x64x99999999999999999999",
}

// TestMalformedSizesRejected pins the strict size grammar on the wire:
// exactly two or three positive decimal components and nothing else. Each
// of these sizes is answered 400 and is unroutable for a 3-D and a 2-D
// kernel, never served as a prefix of itself.
func TestMalformedSizesRejected(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	for _, size := range malformedSizes {
		for _, kernel := range []string{"laplacian", "edge"} {
			body := `{"model":"tiny","kernel":"` + kernel + `","size":"` + size + `"}`
			if w, _ := postJSON(t, h, "/v1/tune", body); w.Code != http.StatusBadRequest {
				t.Errorf("%s size %q: /v1/tune status %d, want 400", kernel, size, w.Code)
			}
			if key, ok := RoutingKey([]byte(body)); ok {
				t.Errorf("%s size %q: RoutingKey = %q, ok=true; want unroutable", kernel, size, key)
			}
		}
	}
	// A size whose dimensionality disagrees with the kernel's is malformed
	// too, both ways round: neither a sim nor a measure tune is admitted.
	for _, instance := range []string{
		`"kernel":{"offsets":[[1,0],[-1,0],[0,1],[0,-1]]},"size":"48x48x48"`,
		`"kernel":"laplacian","size":"48x48"`,
	} {
		for _, body := range []string{
			`{"model":"tiny",` + instance + `}`,
			`{"model":"tiny",` + instance + `,"topk":2,"mode":"measure"}`,
		} {
			if w, out := postJSON(t, h, "/v1/tune", body); w.Code != http.StatusBadRequest {
				t.Errorf("%s: /v1/tune status %d %v, want 400", body, w.Code, out)
			}
			if key, ok := RoutingKey([]byte(body)); ok {
				t.Errorf("%s: RoutingKey = %q, ok=true; want unroutable", body, key)
			}
		}
	}
	if n := s.ObsRegistry().Value("stencilserve_measure_requests_total"); n != 0 {
		t.Errorf("measure_requests = %v, want 0: a malformed instance took the measure path", n)
	}
}

// TestBufferCountBounded: a kernel reading more than stencil.MaxBuffers
// buffers is rejected on every endpoint, before anything is measured or
// logged; the bound itself is accepted.
func TestBufferCountBounded(t *testing.T) {
	s, read := walServer(t, Config{})
	h := s.Handler()
	kernel := func(buffers int) string {
		return fmt.Sprintf(`"kernel":{"offsets":[[1,0,0],[-1,0,0],[0,1,0],[0,-1,0],[0,0,1],[0,0,-1]],"buffers":%d},"size":"32x32x32"`, buffers)
	}
	vector := `{"bx":8,"by":8,"bz":4,"u":1,"c":1}`
	for path, fields := range map[string]string{
		"/v1/tune":    `"topk":2,"mode":"measure"`,
		"/v1/predict": `"mode":"measure","vectors":[` + vector + `]`,
		"/v1/observe": `"observations":[{"vector":` + vector + `,"runtime_seconds":0.01}]`,
	} {
		body := `{"model":"tiny",` + kernel(stencil.MaxBuffers+1) + `,` + fields + `}`
		if w, out := postJSON(t, h, path, body); w.Code != http.StatusBadRequest {
			t.Errorf("%s with %d buffers: status %d %v, want 400", path, stencil.MaxBuffers+1, w.Code, out)
		}
	}
	if n := s.ObsRegistry().Value("stencilserve_measure_requests_total"); n != 0 {
		t.Errorf("measure_requests = %v, want 0", n)
	}
	body := `{"model":"tiny",` + kernel(stencil.MaxBuffers) + `,"observations":[{"vector":` + vector + `,"runtime_seconds":0.01}]}`
	if w, out := postJSON(t, h, "/v1/observe", body); w.Code != http.StatusAccepted {
		t.Errorf("observe with %d buffers: status %d %v, want 202", stencil.MaxBuffers, w.Code, out)
	}
	if recs := read(); len(recs) != 1 || recs[0].Buffers != stencil.MaxBuffers {
		t.Errorf("WAL holds %+v, want the one %d-buffer observation", recs, stencil.MaxBuffers)
	}
}

// TestMeasureBorrowedBenchmarkName: a custom kernel that reuses a Table III
// name runs its own structure, not the named kernel's terms. A planar
// kernel named laplacian used to run the 3-D laplacian on a planar grid and
// crash the executor's worker.
func TestMeasureBorrowedBenchmarkName(t *testing.T) {
	if testing.Short() {
		t.Skip("real execution")
	}
	s := newTestServer(t)
	body := `{"model":"tiny","kernel":{"name":"laplacian","offsets":[[0,0],[1,0],[-1,0],[0,1],[0,-1]]},"size":"32x32","topk":2,"mode":"measure"}`
	if w, out := postJSON(t, s.Handler(), "/v1/tune", body); w.Code != http.StatusOK {
		t.Fatalf("measure tune: status %d %v, want 200", w.Code, out)
	}
}

func TestRequestErrors(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	cases := []struct {
		path, body string
		code       int
	}{
		{"/v1/tune", `{"model":"nope","kernel":"laplacian","size":"64x64x64"}`, http.StatusNotFound},
		{"/v1/tune", `{"model":"tiny","kernel":"not-a-kernel","size":"64x64x64"}`, http.StatusBadRequest},
		{"/v1/tune", `{"model":"tiny","kernel":"laplacian","size":"banana"}`, http.StatusBadRequest},
		{"/v1/tune", `{"model":"tiny","kernel":"laplacian","size":"2x2x2"}`, http.StatusBadRequest}, // too small for halo
		{"/v1/predict", `{"model":"tiny","kernel":"laplacian","size":"64x64x64"}`, http.StatusBadRequest},
		{"/v1/predict", `{"model":"tiny","kernel":"laplacian","size":"64x64x64","vectors":[{"bx":9999,"by":2,"bz":2,"u":0,"c":1}]}`, http.StatusBadRequest},
		{"/v1/tune", `not json`, http.StatusBadRequest},
		{"/v1/tune", `{"model":"tiny","kernel":"laplacian","size":"64x64x64","mode":"banana"}`, http.StatusBadRequest},
		{"/v1/predict", `{"model":"tiny","kernel":"laplacian","size":"64x64x64","vectors":[{"bx":4,"by":4,"bz":4,"u":0,"c":1}],"mode":"banana"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		w, _ := postJSON(t, h, c.path, c.body)
		if w.Code != c.code {
			t.Errorf("POST %s %q: status %d, want %d", c.path, c.body, w.Code, c.code)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/tune", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/tune: status %d, want 405", w.Code)
	}

	// Errors are never cached: a failed request repeated still fails.
	w2, _ := postJSON(t, h, "/v1/tune", `{"model":"nope","kernel":"laplacian","size":"64x64x64"}`)
	if w2.Code != http.StatusNotFound {
		t.Errorf("repeated bad request: status %d, want 404", w2.Code)
	}
}

// TestMeasurePredict runs one real measured prediction through the shared
// executor (serialized MeasureBatch) — small grid, single vector.
func TestMeasurePredict(t *testing.T) {
	if testing.Short() {
		t.Skip("real execution")
	}
	s := newTestServer(t)
	h := s.Handler()
	w, resp := postJSON(t, h, "/v1/predict",
		`{"model":"tiny","kernel":"blur","size":"64x64","vectors":[{"bx":16,"by":16,"u":0,"c":1}],"mode":"measure"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("measure predict: status %d: %v", w.Code, resp)
	}
	vals := resp["values"].([]any)
	if sec := vals[0].(float64); sec <= 0 {
		t.Errorf("measured runtime = %v, want > 0", sec)
	}
	if n := int64(s.ObsRegistry().Value("stencilserve_measure_requests_total")); n != 1 {
		t.Errorf("measure_requests = %d, want 1", n)
	}
}

// ---------------------------------------------------------------------------
// Benchmarks (rendered into BENCH_serve.json by CI)

func benchServer(b *testing.B) *Server {
	b.Helper()
	s, err := New(Config{ModelDir: fixtureModelDir, CacheSize: 8192})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	b.Cleanup(s.Close)
	return s
}

// BenchmarkServeTuneCached measures the steady-state hot path: an identical
// tune request answered from the sharded LRU.
func BenchmarkServeTuneCached(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	body := `{"model":"tiny","kernel":"laplacian","size":"128x128x128"}`
	// Prime the cache.
	req := httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(body))
	h.ServeHTTP(httptest.NewRecorder(), req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// BenchmarkServeTuneCold measures the miss path: every request is a new
// (kernel, size) and pays a full predefined-set ranking inference.
func BenchmarkServeTuneCold(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Unique size per iteration => guaranteed cache miss.
		body := fmt.Sprintf(`{"model":"tiny","kernel":"laplacian","size":"%dx128x128"}`, 64+i)
		req := httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// TestHybridTuneBestIsModelTop1: a hybrid tune ranks the predefined set
// once, and its "best" is still the model's top-1 — the same answer as a
// plain tune — next to the measured winner of the top-k.
func TestHybridTuneBestIsModelTop1(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	w, plain := postJSON(t, h, "/v1/tune", `{"model":"tiny","kernel":"laplacian","size":"100x100x100"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("tune: status %d: %v", w.Code, plain)
	}
	w, hyb := postJSON(t, h, "/v1/tune", `{"model":"tiny","kernel":"laplacian","size":"100x100x100","topk":4}`)
	if w.Code != http.StatusOK {
		t.Fatalf("hybrid tune: status %d: %v", w.Code, hyb)
	}
	if got, want := vectorFrom(t, hyb, "best"), vectorFrom(t, plain, "best"); got != want {
		t.Errorf("hybrid best %v, plain tune best %v", got, want)
	}
	hj, ok := hyb["hybrid"].(map[string]any)
	if !ok || hj["topk"] != float64(4) {
		t.Fatalf("hybrid block = %v, want topk 4", hyb["hybrid"])
	}
	if us, _ := hyb["rank_micros"].(float64); us <= 0 {
		t.Errorf("rank_micros = %v, want the ranking time", hyb["rank_micros"])
	}
}
