package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/store"
	"repro/internal/svmrank"
	"repro/internal/wal"
)

// walServer builds a server whose observations land in a fresh WAL under a
// temp dir; the returned read function closes the server (flushing the sink)
// and reads every durable record back.
func walServer(t *testing.T, cfg Config) (*Server, func() []wal.Record) {
	t.Helper()
	dir := t.TempDir()
	l, rep, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fresh WAL dirty: %+v", rep)
	}
	if cfg.ModelDir == "" {
		cfg.ModelDir = fixtureModelDir
	}
	cfg.WAL = l
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	read := func() []wal.Record {
		t.Helper()
		if !closed {
			closed = true
			s.Close()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
		recs, rrep, err := wal.ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !rrep.Clean() {
			t.Fatalf("WAL dirty after clean shutdown: %+v", rrep)
		}
		return recs
	}
	t.Cleanup(func() { read() })
	return s, read
}

func TestObserveRequiresWAL(t *testing.T) {
	s := newTestServer(t) // no WAL configured
	w, out := postJSON(t, s.Handler(), "/v1/observe",
		`{"kernel":"laplacian","size":"64x64x64","observations":[{"vector":{"bx":32,"by":8,"bz":4,"u":2,"c":1},"runtime_seconds":0.01}]}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("observe without WAL: %d %v, want 503", w.Code, out)
	}
}

func TestObserveAppendsToWAL(t *testing.T) {
	s, read := walServer(t, Config{Machine: "server-host"})
	body := `{"kernel":"laplacian","size":"64x64x64","machine":"client-a","observations":[
		{"vector":{"bx":32,"by":8,"bz":4,"u":2,"c":1},"runtime_seconds":0.010},
		{"vector":{"bx":16,"by":16,"bz":2,"u":1,"c":1},"runtime_seconds":0.014}]}`
	w, out := postJSON(t, s.Handler(), "/v1/observe", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("observe: %d %v, want 202", w.Code, out)
	}
	if acc, _ := out["accepted"].(float64); acc != 2 {
		t.Fatalf("accepted = %v, want 2", out["accepted"])
	}
	if drop, _ := out["dropped"].(float64); drop != 0 {
		t.Fatalf("dropped = %v, want 0", out["dropped"])
	}

	recs := read()
	if len(recs) != 2 {
		t.Fatalf("WAL holds %d records, want 2", len(recs))
	}
	for i, r := range recs {
		if r.Source != "observe" || r.Machine != "client-a" {
			t.Fatalf("record %d source/machine = %q/%q, want observe/client-a", i, r.Source, r.Machine)
		}
		if r.Fingerprint == "" || r.Kernel != "laplacian" {
			t.Fatalf("record %d lost kernel identity: %+v", i, r)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid after round-trip: %v", i, err)
		}
	}
	if recs[0].Tuning().Bx != 32 || recs[1].Tuning().Bx != 16 {
		t.Fatalf("tuning vectors did not round-trip: %v %v", recs[0].Vector, recs[1].Vector)
	}
}

func TestObserveRejectsPoisonWithoutIngesting(t *testing.T) {
	s, read := walServer(t, Config{})
	h := s.Handler()
	bad := []string{
		// Non-positive and absurd runtimes.
		`{"kernel":"laplacian","size":"64x64x64","observations":[{"vector":{"bx":32,"by":8,"bz":4,"u":2,"c":1},"runtime_seconds":0}]}`,
		`{"kernel":"laplacian","size":"64x64x64","observations":[{"vector":{"bx":32,"by":8,"bz":4,"u":2,"c":1},"runtime_seconds":-0.5}]}`,
		`{"kernel":"laplacian","size":"64x64x64","observations":[{"vector":{"bx":32,"by":8,"bz":4,"u":2,"c":1},"runtime_seconds":90000}]}`,
		// Invalid tuning vector.
		`{"kernel":"laplacian","size":"64x64x64","observations":[{"vector":{"bx":0,"by":0,"bz":0,"u":0,"c":0},"runtime_seconds":0.01}]}`,
		// A valid observation does not smuggle in an invalid sibling.
		`{"kernel":"laplacian","size":"64x64x64","observations":[
			{"vector":{"bx":32,"by":8,"bz":4,"u":2,"c":1},"runtime_seconds":0.01},
			{"vector":{"bx":32,"by":8,"bz":4,"u":2,"c":1},"runtime_seconds":-1}]}`,
		// No observations at all.
		`{"kernel":"laplacian","size":"64x64x64","observations":[]}`,
	}
	for i, body := range bad {
		if w, out := postJSON(t, h, "/v1/observe", body); w.Code != http.StatusBadRequest {
			t.Fatalf("bad observation %d: %d %v, want 400", i, w.Code, out)
		}
	}
	if recs := read(); len(recs) != 0 {
		t.Fatalf("rejected observations reached the WAL: %d records", len(recs))
	}
}

func TestMeasurePredictLogsToWAL(t *testing.T) {
	s, read := walServer(t, Config{Machine: "measurer-1"})
	body := `{"model":"tiny","kernel":"laplacian","size":"16x16x16","mode":"measure",
		"vectors":[{"bx":8,"by":4,"bz":2,"u":1,"c":1},{"bx":4,"by":4,"bz":4,"u":1,"c":1}]}`
	w, out := postJSON(t, s.Handler(), "/v1/predict", body)
	if w.Code != http.StatusOK {
		t.Fatalf("measure predict: %d %v", w.Code, out)
	}
	// A second identical request answers from cache and must not re-log.
	if w2, _ := postJSON(t, s.Handler(), "/v1/predict", body); w2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second measure predict X-Cache = %q, want hit", w2.Header().Get("X-Cache"))
	}

	recs := read()
	if len(recs) != 2 {
		t.Fatalf("WAL holds %d records, want 2 (one per measured vector, none from the cache hit)", len(recs))
	}
	for i, r := range recs {
		if r.Source != "measure" || r.Machine != "measurer-1" {
			t.Fatalf("record %d source/machine = %q/%q", i, r.Source, r.Machine)
		}
		if !(r.RuntimeSeconds > 0) {
			t.Fatalf("record %d runtime %v", i, r.RuntimeSeconds)
		}
	}
	if int64(s.ObsRegistry().Value("stencilserve_wal_appended_total")) != 2 || int64(s.ObsRegistry().Value("stencilserve_wal_dropped_total")) != 0 {
		t.Fatalf("wal metrics appended=%d dropped=%d, want 2/0",
			int64(s.ObsRegistry().Value("stencilserve_wal_appended_total")), int64(s.ObsRegistry().Value("stencilserve_wal_dropped_total")))
	}
}

// unrunnableKernel's offsets all lie in one plane, so its predefined set
// is the 2-D one (bz=1), which the executor cannot run on a 3-D grid. Such
// an instance is malformed and is rejected before anything is measured.
const unrunnableKernel = `{"name":"p","offsets":[[0,0,0],[1,0,0],[0,1,0]],"dtype":"float64"}`

// TestMeasureTuneWithNoRunnableCandidate: a measured tune whose candidates
// cannot run on the grid is a 400 naming the dimensionality mismatch, never
// a JSON encoding failure of an infinite best time. It takes no admission
// slot, nothing is cached and nothing reaches the WAL.
func TestMeasureTuneWithNoRunnableCandidate(t *testing.T) {
	s, read := walServer(t, Config{CacheSize: 16})
	body := `{"model":"tiny","kernel":` + unrunnableKernel + `,"size":"16x16x16","topk":2,"mode":"measure"}`
	for i := 0; i < 2; i++ {
		w, out := postJSON(t, s.Handler(), "/v1/tune", body)
		msg, _ := out["error"].(string)
		if w.Code != http.StatusBadRequest || !strings.Contains(msg, "2-D kernel") || strings.Contains(msg, "Inf") {
			t.Fatalf("request %d: %d %v, want 400 naming the dimensionality mismatch", i, w.Code, out)
		}
	}
	if got := int64(s.ObsRegistry().Value("stencilserve_measure_requests_total")); got != 0 {
		t.Errorf("measure_requests = %d, want 0 (rejected before admission)", got)
	}
	if got := int64(s.ObsRegistry().Value("stencilserve_inferences_total")); got != 0 {
		t.Errorf("inferences = %d, want 0", got)
	}
	if recs := read(); len(recs) != 0 {
		t.Errorf("WAL holds %d records, want none", len(recs))
	}
}

// TestMeasurePredictWithUnrunnableVector: a measured prediction the
// executor cannot run on the grid answers 400 before anything is measured.
func TestMeasurePredictWithUnrunnableVector(t *testing.T) {
	s, read := walServer(t, Config{})
	body := `{"model":"tiny","kernel":` + unrunnableKernel + `,"size":"16x16x16","mode":"measure",
		"vectors":[{"bx":8,"by":4,"bz":1,"u":1,"c":1}]}`
	w, out := postJSON(t, s.Handler(), "/v1/predict", body)
	if msg, _ := out["error"].(string); w.Code != http.StatusBadRequest || !strings.Contains(msg, "2-D kernel") {
		t.Fatalf("predict: %d %v, want 400 naming the dimensionality mismatch", w.Code, out)
	}
	if got := int64(s.ObsRegistry().Value("stencilserve_measure_requests_total")); got != 0 {
		t.Errorf("measure_requests = %d, want 0 (rejected before admission)", got)
	}
	if recs := read(); len(recs) != 0 {
		t.Errorf("WAL holds %d records, want none", len(recs))
	}
}

// ---------------------------------------------------------------------------
// Hot swap

// swapStore seeds a temp store with the fixture model under the given names,
// each with slightly different weights so content hashes differ.
func swapStore(t *testing.T, names ...string) (string, *store.Store) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base, err := store.LoadPath(fixtureModelDir + "/tiny")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		saveVariant(t, st, base, name, float64(i))
	}
	return dir, st
}

func saveVariant(t *testing.T, st *store.Store, base *store.Artifact, name string, bump float64) {
	t.Helper()
	w := append([]float64(nil), base.Model.W...)
	w[feature.TailStart] += bump * 0.125 // the first weight any score reads
	a := *base
	a.Name = name
	a.Model = &svmrank.Model{W: w, C: base.Model.C}
	if err := st.Save(&a); err != nil {
		t.Fatal(err)
	}
}

func TestReloadSwapsRegistryAndCache(t *testing.T) {
	dir, st := swapStore(t, "default")
	s, err := New(Config{ModelDir: dir, CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()
	if got := s.RegistryVersion(); got != 1 {
		t.Fatalf("fresh registry version %d, want 1", got)
	}
	body := `{"kernel":"laplacian","size":"64x64x64"}`
	if w, _ := postJSON(t, h, "/v1/tune", body); w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first tune X-Cache = %q", w.Header().Get("X-Cache"))
	}
	if w, _ := postJSON(t, h, "/v1/tune", body); w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second tune X-Cache = %q", w.Header().Get("X-Cache"))
	}

	// Re-save the model with different weights and hot-swap.
	base, err := st.Load("default")
	if err != nil {
		t.Fatal(err)
	}
	saveVariant(t, st, base, "default", 7)
	v, err := s.ReloadModels()
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || s.RegistryVersion() != 2 {
		t.Fatalf("version after reload = %d/%d, want 2", v, s.RegistryVersion())
	}
	// The swapped model must not answer from its predecessor's cache: the
	// content hash in the key forces a fresh inference.
	if w, _ := postJSON(t, h, "/v1/tune", body); w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("post-swap tune X-Cache = %q, want miss", w.Header().Get("X-Cache"))
	}

	wm, out := getJSON(t, h, "/v1/models")
	if wm.Code != http.StatusOK {
		t.Fatalf("/v1/models: %d", wm.Code)
	}
	if rv, _ := out["registry_version"].(float64); int64(rv) != 2 {
		t.Fatalf("/v1/models registry_version = %v, want 2", out["registry_version"])
	}
}

// TestInFlightRequestSurvivesSwap pins a request mid-inference, swaps the
// registry underneath it, and checks the request completes cleanly on the
// generation it started with.
func TestInFlightRequestSurvivesSwap(t *testing.T) {
	dir, st := swapStore(t, "default")
	s, err := New(Config{ModelDir: dir, CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()

	entered := make(chan struct{})
	release := make(chan struct{})
	s.testHookInfer = func() {
		close(entered)
		<-release
	}
	done := make(chan int, 1)
	go func() {
		w, _ := postJSON(t, h, "/v1/tune", `{"kernel":"laplacian","size":"64x64x64"}`)
		done <- w.Code
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached inference")
	}
	// Swap while the request is parked inside its inference.
	base, err := st.Load("default")
	if err != nil {
		t.Fatal(err)
	}
	saveVariant(t, st, base, "default", 3)
	if _, err := s.ReloadModels(); err != nil {
		t.Fatal(err)
	}
	close(release)
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("in-flight request failed with %d after swap", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
}

// TestReloadFailureKeepsServing wipes the store after startup: Reload must
// fail and the running generation must keep answering.
func TestReloadFailureKeepsServing(t *testing.T) {
	dir, st := swapStore(t, "default")
	s, err := New(Config{ModelDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Corrupt the only artifact on disk.
	mutateArtifactFile(t, st.Dir(), "default")
	if _, err := s.ReloadModels(); err == nil {
		t.Fatal("reload over a corrupt store reported success")
	}
	if v := s.RegistryVersion(); v != 1 {
		t.Fatalf("failed reload bumped version to %d", v)
	}
	w, out := postJSON(t, s.Handler(), "/v1/tune", `{"kernel":"laplacian","size":"64x64x64"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("serving broke after failed reload: %d %v", w.Code, out)
	}
}

func getJSON(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
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

func mutateArtifactFile(t *testing.T, dir, name string) {
	t.Helper()
	path := fmt.Sprintf("%s/%s/model.json", dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x20
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
