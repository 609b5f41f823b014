package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// driveTraffic sends one deterministic request to every instrumented route:
// a tune miss, the identical tune again (hit), a rank, a sim predict, and
// the three GET surfaces.
func driveTraffic(t *testing.T, h http.Handler) {
	t.Helper()
	tune := `{"model":"tiny","kernel":"laplacian","size":"100x100x100"}`
	postJSON(t, h, "/v1/tune", tune)
	postJSON(t, h, "/v1/tune", tune)
	postJSON(t, h, "/v1/rank", `{"model":"tiny","kernel":"edge","size":"256x256"}`)
	postJSON(t, h, "/v1/predict", `{"model":"tiny","kernel":"laplacian","size":"64x64x64","vectors":[{"bx":8,"by":4,"bz":2,"u":1,"c":1}]}`)
	for _, path := range []string{"/v1/models", "/healthz", "/readyz"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK && w.Code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s: status %d", path, w.Code)
		}
	}
}

func scrape(t *testing.T, h http.Handler) (*httptest.ResponseRecorder, string) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", w.Code)
	}
	return w, w.Body.String()
}

// TestMetricsPrometheusText asserts /metrics serves the Prometheus text
// format with the tentpole series populated: per-endpoint request counters
// and latency histograms, pipeline stage histograms, cache counters, and
// the live gauges.
func TestMetricsPrometheusText(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	driveTraffic(t, h)

	w, body := scrape(t, h)
	if ct := w.Header().Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	for _, want := range []string{
		`stencilserve_requests_total{endpoint="tune"} 2`,
		`stencilserve_requests_total{endpoint="rank"} 1`,
		`stencilserve_requests_total{endpoint="healthz"} 1`,
		`stencilserve_request_duration_seconds_count{endpoint="tune"} 2`,
		`stencilserve_request_duration_seconds_bucket{endpoint="tune",le="+Inf"} 2`,
		`stencilserve_stage_duration_seconds_count{stage="cache_lookup"} 4`,
		`stencilserve_cache_hits_total 1`,
		`stencilserve_cache_misses_total 3`,
		`stencilserve_inferences_total 3`,
		"# TYPE stencilserve_request_duration_seconds histogram",
		"# TYPE stencilserve_requests_total counter",
		"stencilserve_cache_entries 3",
		"stencilserve_registry_generation 1",
		`stencilserve_build_info{`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every serveCached endpoint records a cache_lookup span: tune x2,
	// rank, predict = 4; inference spans only on the 3 misses.
	if got := s.obsReg.HistogramCount("stencilserve_stage_duration_seconds", "cache_lookup"); got != 4 {
		t.Errorf("cache_lookup stage count = %d, want 4", got)
	}
	if got := s.obsReg.HistogramCount("stencilserve_stage_duration_seconds", "inference"); got != 3 {
		t.Errorf("inference stage count = %d, want 3", got)
	}
}

// normalizeExposition reduces a scrape to its schema — family names, types,
// label names and values, bucket boundaries — by dropping HELP lines and
// sample values, which vary run to run. Build-identity labels are collapsed
// (they track the toolchain, not the metric schema).
func normalizeExposition(raw string) string {
	var out []string
	for _, line := range strings.Split(raw, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP"):
			continue
		case strings.HasPrefix(line, "# TYPE"):
			out = append(out, line)
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			line = line[:i]
		}
		if strings.HasPrefix(line, "stencilserve_build_info{") {
			line = "stencilserve_build_info{commit,go,version}"
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n") + "\n"
}

// TestMetricsSchemaGolden pins the full exposition schema — every family,
// type, label set and histogram bucket boundary — against a golden file, so
// a metric rename, label change or bucket edit is a reviewed diff, never an
// accident. Regenerate with:
//
//	go test ./internal/server -run MetricsSchemaGolden -update
func TestMetricsSchemaGolden(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	driveTraffic(t, h)

	_, body := scrape(t, h)
	got := normalizeExposition(body)

	golden := filepath.Join("testdata", "metrics_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metrics schema drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestAccessLogCarriesCorrelationIDAndSpans asserts the per-request log
// line: structured JSON with the X-Request-ID correlation ID, endpoint,
// status, latency, cache disposition and the pipeline spans.
func TestAccessLogCarriesCorrelationIDAndSpans(t *testing.T) {
	var buf bytes.Buffer
	s, err := New(Config{
		ModelDir:  fixtureModelDir,
		AccessLog: obs.NewLogger(&buf, "json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/tune",
		strings.NewReader(`{"model":"tiny","kernel":"laplacian","size":"100x100x100"}`))
	// The RequestID middleware normally injects the ID; stand in for it.
	req = req.WithContext(obs.WithRequestID(req.Context(), "corr-123"))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("tune: status %d", w.Code)
	}

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log is not one JSON object: %v\n%s", err, buf.String())
	}
	if line["request_id"] != "corr-123" || line["endpoint"] != "tune" ||
		line["status"] != float64(200) || line["cache"] != "miss" {
		t.Errorf("access log fields = %v", line)
	}
	if _, ok := line["duration_us"].(float64); !ok {
		t.Errorf("access log lacks duration_us: %v", line)
	}
	spans, ok := line["spans"].([]any)
	if !ok || len(spans) < 2 {
		t.Fatalf("access log spans = %v, want cache_lookup + inference", line["spans"])
	}
	stages := make(map[string]bool)
	for _, sp := range spans {
		stages[sp.(map[string]any)["stage"].(string)] = true
	}
	if !stages["cache_lookup"] || !stages["inference"] {
		t.Errorf("miss spans = %v, want cache_lookup and inference", stages)
	}

	// The cached repeat logs a hit with no inference span.
	buf.Reset()
	req = httptest.NewRequest(http.MethodPost, "/v1/tune",
		strings.NewReader(`{"model":"tiny","kernel":"laplacian","size":"100x100x100"}`))
	h.ServeHTTP(httptest.NewRecorder(), req)
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("second access log line: %v", err)
	}
	if line["cache"] != "hit" {
		t.Errorf("cached repeat logged cache=%v, want hit", line["cache"])
	}
	for _, sp := range line["spans"].([]any) {
		if sp.(map[string]any)["stage"] == "inference" {
			t.Errorf("cache hit logged an inference span: %v", line["spans"])
		}
	}
}

// TestConcurrentScrapeWhileServing hammers the cached tune path from many
// goroutines while scraping /metrics concurrently; run under -race it
// proves the registry's lock discipline on the live server.
func TestConcurrentScrapeWhileServing(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	body := `{"model":"tiny","kernel":"laplacian","size":"100x100x100"}`
	postJSON(t, h, "/v1/tune", body) // prime

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(body)))
				if w.Code != http.StatusOK {
					t.Errorf("tune under scrape: status %d", w.Code)
					return
				}
			}
		}()
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if w.Code != http.StatusOK {
					t.Errorf("scrape under load: status %d", w.Code)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := int64(s.ObsRegistry().Value("stencilserve_cache_hits_total")); got != 4*200 {
		t.Errorf("cache_hits = %d, want %d (lost increments under concurrency)", got, 4*200)
	}
}

// BenchmarkCachedTuneInstrumented measures the cached-tune hot path with
// everything the observability layer adds turned on: the metrics
// BenchmarkServeTuneCached already pays, plus per-request span collection
// and one structured JSON access-log line per request carrying the
// correlation ID (sent as X-Request-ID, exactly as the shipped client does
// on every call). Its delta against BenchmarkServeTuneCached in
// BENCH_serve.json is the full instrumentation overhead. The production
// middleware chain (request-ID injection, timeout handler, recover, rate
// limit, body cap) predates the observability layer and is deliberately
// excluded — its cost is not instrumentation overhead.
func BenchmarkCachedTuneInstrumented(b *testing.B) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	logger := obs.NewLogger(discardWriter{}, "json")
	s, err := New(Config{
		ModelDir:  "../store/testdata",
		CacheSize: 4096,
		Registry:  reg,
		AccessLog: logger.With(obs.F("component", "http")),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	h := s.Handler()

	body := `{"model":"tiny","kernel":"laplacian","size":"128x128x128"}`
	newReq := func() *http.Request {
		req := httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(body))
		req.Header.Set("X-Request-ID", "9f2c4a81d06b73e5")
		return req
	}
	h.ServeHTTP(httptest.NewRecorder(), newReq())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, newReq())
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestExecCacheMetrics checks the executor cache series: all read 0 before
// the first measure-mode request creates the measurer, and two kernels
// measured on one (size, blocking) build one layout and share it.
func TestExecCacheMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("real execution")
	}
	s := newTestServer(t)
	h := s.Handler()
	reg := s.ObsRegistry()
	names := []string{"stencilserve_exec_cache_hits_total", "stencilserve_exec_cache_misses_total", "stencilserve_exec_cache_evictions_total"}
	for _, name := range names {
		for _, cache := range []string{"program", "layout"} {
			if v := reg.Value(name, cache); v != 0 {
				t.Errorf("%s{cache=%q} = %v before any measurement, want 0", name, cache, v)
			}
		}
	}
	vectors := `"vectors":[{"bx":16,"by":8,"bz":8,"u":1,"c":1},{"bx":16,"by":8,"bz":8,"u":2,"c":1}]`
	for _, offsets := range []string{
		`[[0,0,0],[1,0,0],[-1,0,0],[0,1,0],[0,0,-1],[1,1,0]]`,
		`[[0,0,0],[-1,0,0],[0,-1,0],[0,0,1],[1,0,1],[0,1,1]]`,
	} {
		body := `{"model":"tiny","kernel":{"offsets":` + offsets + `},"size":"32x32x32","mode":"measure",` + vectors + `}`
		if w, out := postJSON(t, h, "/v1/predict", body); w.Code != http.StatusOK {
			t.Fatalf("measure predict: status %d %v", w.Code, out)
		}
	}
	want := map[string][2]float64{ // program, layout
		"stencilserve_exec_cache_hits_total":      {0, 3},
		"stencilserve_exec_cache_misses_total":    {4, 1},
		"stencilserve_exec_cache_evictions_total": {0, 0},
	}
	for _, name := range names {
		for i, cache := range []string{"program", "layout"} {
			if v := reg.Value(name, cache); v != want[name][i] {
				t.Errorf("%s{cache=%q} = %v, want %v", name, cache, v, want[name][i])
			}
		}
	}
	if _, body := scrape(t, h); !strings.Contains(body, `stencilserve_exec_cache_hits_total{cache="layout"} 3`) {
		t.Errorf("/metrics lacks the layout hit count:\n%s", body)
	}
}

// TestExecCacheSharedAcrossRequests checks that two measure predicts of the
// same offsets, each building its own kernel, share compiled programs. The
// second predict adds a vector so the response cache cannot answer it; its
// first vector must hit the program the first predict compiled.
func TestExecCacheSharedAcrossRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("real execution")
	}
	s := newTestServer(t)
	h := s.Handler()
	v1 := `{"bx":16,"by":8,"bz":8,"u":1,"c":1}`
	for _, vectors := range []string{v1, v1 + `,{"bx":16,"by":8,"bz":8,"u":2,"c":1}`} {
		body := `{"model":"tiny","kernel":{"offsets":[[0,0,0],[1,0,0],[-1,0,0],[0,1,0],[0,0,-1],[1,1,0]]},"size":"32x32x32","mode":"measure","vectors":[` + vectors + `]}`
		if w, out := postJSON(t, h, "/v1/predict", body); w.Code != http.StatusOK {
			t.Fatalf("measure predict: status %d %v", w.Code, out)
		}
	}
	reg := s.ObsRegistry()
	if hits, misses := reg.Value("stencilserve_exec_cache_hits_total", "program"), reg.Value("stencilserve_exec_cache_misses_total", "program"); hits != 1 || misses != 2 {
		t.Errorf("program cache hits, misses = %v, %v after two measure predicts of one kernel, want 1, 2", hits, misses)
	}
}

// TestExecPoolMetrics checks the executor pool series: 0 before the first
// measure-mode request creates the measurer, and one measure predict moves
// the run count.
func TestExecPoolMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("real execution")
	}
	s := newTestServer(t)
	h := s.Handler()
	reg := s.ObsRegistry()
	names := []string{"stencilserve_exec_pool_runs_total", "stencilserve_exec_pool_joined_runs_total", "stencilserve_exec_pool_steals_total"}
	for _, name := range names {
		if v := reg.Value(name); v != 0 {
			t.Errorf("%s = %v before any measurement, want 0", name, v)
		}
	}
	body := `{"model":"tiny","kernel":{"offsets":[[0,0,0],[1,0,0],[-1,0,0],[0,1,0],[0,0,-1],[1,1,0]]},"size":"32x32x32","mode":"measure","vectors":[{"bx":16,"by":8,"bz":8,"u":1,"c":1}]}`
	if w, out := postJSON(t, h, "/v1/predict", body); w.Code != http.StatusOK {
		t.Fatalf("measure predict: status %d %v", w.Code, out)
	}
	if v := reg.Value("stencilserve_exec_pool_runs_total"); v < 1 {
		t.Errorf("stencilserve_exec_pool_runs_total = %v after a measure predict, want >= 1", v)
	}
	if _, body := scrape(t, h); !strings.Contains(body, "stencilserve_exec_pool_steals_total ") {
		t.Errorf("/metrics lacks the pool steal count:\n%s", body)
	}
}
