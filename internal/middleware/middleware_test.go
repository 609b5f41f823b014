package middleware

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			if _, err := io.ReadAll(r.Body); err != nil {
				// The server package maps this to 413; here a plain 400
				// suffices to observe MaxBytesReader truncation.
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}`))
	})
}

func TestChainOrder(t *testing.T) {
	var order []string
	tag := func(name string) func(http.Handler) http.Handler {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(okHandler(), tag("outer"), tag("inner"))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("middleware ran in order %v, want [outer inner]", order)
	}
}

func TestRequestIDGeneratedAndPropagated(t *testing.T) {
	var seen string
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = obs.RequestIDFrom(r.Context())
	}), RequestID())

	// Generated when absent.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/", nil))
	if seen == "" {
		t.Fatal("no request ID injected into context")
	}
	if got := w.Header().Get(RequestIDHeader); got != seen {
		t.Errorf("response header %q, context %q — want identical", got, seen)
	}

	// Propagated when the client supplies one.
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(RequestIDHeader, "client-chosen-7")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if seen != "client-chosen-7" || w.Header().Get(RequestIDHeader) != "client-chosen-7" {
		t.Errorf("client-supplied ID not propagated: context %q header %q", seen, w.Header().Get(RequestIDHeader))
	}

	// Oversized IDs are replaced, not echoed (header-stuffing guard).
	req = httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(RequestIDHeader, strings.Repeat("x", 500))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if len(w.Header().Get(RequestIDHeader)) > 128 {
		t.Error("oversized client request ID echoed back")
	}
}

func TestRecoverIsolatesPanic(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	logger := obs.NewLogger(&logBuf, "json")
	mux := http.NewServeMux()
	mux.Handle("/boom", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	mux.Handle("/ok", okHandler())
	h := Chain(mux, RequestID(), Recover(logger, reg))

	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/boom", nil)
	req.Header.Set(RequestIDHeader, "trace-me-42")
	h.ServeHTTP(w, req)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", w.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("panic response is not a JSON error: %q", w.Body.String())
	}
	if got := reg.Value("stencilserve_panics_total"); got != 1 {
		t.Errorf("stencilserve_panics_total = %v, want 1", got)
	}

	// The panic log line must identify the request that caused it.
	var line map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("panic log is not structured JSON: %v\n%s", err, logBuf.String())
	}
	if line["request_id"] != "trace-me-42" || line["path"] != "/boom" || line["method"] != http.MethodGet {
		t.Errorf("panic log missing correlation fields: %v", line)
	}
	if s, _ := line["panic"].(string); s != "kaboom" {
		t.Errorf("panic log payload = %v, want kaboom", line["panic"])
	}

	// The chain (standing in for the server process) still serves.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/ok", nil))
	if w.Code != http.StatusOK {
		t.Errorf("request after panic: status %d, want 200", w.Code)
	}
}

func TestRecoverPassesAbortHandler(t *testing.T) {
	h := Chain(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}), Recover(obs.NewLogger(io.Discard, "text"), nil))
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Error("http.ErrAbortHandler was swallowed; it must propagate to net/http")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	t.Error("unreachable: abort panic did not propagate")
}

func TestMaxBytes(t *testing.T) {
	reg := obs.NewRegistry()
	h := Chain(okHandler(), MaxBytes(64, reg))

	// Under the cap: fine.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"small":true}`)))
	if w.Code != http.StatusOK {
		t.Fatalf("small body: status %d", w.Code)
	}

	// Declared oversize: immediate 413 before any read.
	big := strings.Repeat("x", 200)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(big)))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", w.Code)
	}
	if got := reg.Value("stencilserve_body_too_large_total"); got != 1 {
		t.Errorf("stencilserve_body_too_large_total = %v, want 1", got)
	}

	// Lying client (no Content-Length): MaxBytesReader truncates the read.
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(big))
	req.ContentLength = -1
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code == http.StatusOK {
		t.Error("chunked oversized body slipped past the cap")
	}
}

func TestRateLimiterBucketsAndRetryAfter(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewRateLimiter(1, 2, reg) // 1 req/s, burst 2
	clock := time.Unix(1000, 0)
	l.now = func() time.Time { return clock }
	h := Chain(okHandler(), l.Middleware())

	do := func(client string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header.Set(ClientIDHeader, client)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	// Burst of 2 passes, the third is shed with an honest Retry-After.
	if do("a").Code != http.StatusOK || do("a").Code != http.StatusOK {
		t.Fatal("burst within capacity was limited")
	}
	w := do("a")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d, want 429", w.Code)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", w.Header().Get("Retry-After"))
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("429 body is not a JSON error: %q", w.Body.String())
	}

	// A different client has its own bucket.
	if do("b").Code != http.StatusOK {
		t.Error("client b was limited by client a's bucket")
	}

	// After the advertised wait, client a is admitted again.
	clock = clock.Add(time.Duration(ra) * time.Second)
	if w := do("a"); w.Code != http.StatusOK {
		t.Errorf("request after Retry-After: status %d, want 200", w.Code)
	}
	if got := reg.Value("stencilserve_rate_limited_total"); got != 1 {
		t.Errorf("stencilserve_rate_limited_total = %v, want 1", got)
	}
}

func TestRateLimiterKeysOnRemoteAddrWithoutClientID(t *testing.T) {
	l := NewRateLimiter(100, 1, nil)
	h := Chain(okHandler(), l.Middleware())
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.RemoteAddr = "10.1.2.3:5555"
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	req2 := httptest.NewRequest(http.MethodGet, "/", nil)
	req2.RemoteAddr = "10.1.2.3:6666" // same host, different port = same client
	w2 := httptest.NewRecorder()
	h.ServeHTTP(w2, req2)
	if w.Code != http.StatusOK || w2.Code != http.StatusTooManyRequests {
		t.Errorf("per-host keying: first %d second %d, want 200 then 429", w.Code, w2.Code)
	}
}

func TestRateLimiterPrunesIdleClients(t *testing.T) {
	l := NewRateLimiter(10, 5, nil)
	clock := time.Unix(2000, 0)
	l.now = func() time.Time { return clock }
	for i := 0; i < 50; i++ {
		l.allow("client-" + strconv.Itoa(i))
	}
	if l.Clients() != 50 {
		t.Fatalf("tracked clients = %d, want 50", l.Clients())
	}
	// All buckets refill within a second; the next allow past the prune
	// interval sweeps them.
	clock = clock.Add(2 * time.Minute)
	l.allow("fresh")
	if got := l.Clients(); got > 2 {
		t.Errorf("after prune window, tracked clients = %d, want <= 2", got)
	}
}

func TestRateLimitDisabledPassesThrough(t *testing.T) {
	l := NewRateLimiter(0, 0, nil)
	h := Chain(okHandler(), l.Middleware())
	for i := 0; i < 100; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("disabled limiter shed request %d", i)
		}
	}
}

func TestJSONContentTypeDefaultsTimeoutBody(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	h := Chain(http.TimeoutHandler(slow, 10*time.Millisecond, `{"error":"request timed out"}`),
		JSONContentType())
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request: status %d, want 503", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("timeout body Content-Type = %q, want application/json", ct)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Errorf("timeout body is not well-formed JSON: %q", w.Body.String())
	}

	// A handler that sets its own Content-Type is left alone.
	h2 := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Write([]byte("hi"))
	}), JSONContentType())
	w2 := httptest.NewRecorder()
	h2.ServeHTTP(w2, httptest.NewRequest(http.MethodGet, "/", nil))
	if ct := w2.Header().Get("Content-Type"); ct != "text/plain" {
		t.Errorf("explicit Content-Type overridden to %q", ct)
	}
}
