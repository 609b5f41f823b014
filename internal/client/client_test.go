package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/middleware"
	"repro/internal/server"
	"repro/internal/wire"
)

func fastCfg(url string) Config {
	return Config{
		BaseURL:           url,
		MaxAttempts:       4,
		PerAttemptTimeout: 2 * time.Second,
		BaseBackoff:       time.Millisecond,
		MaxBackoff:        5 * time.Millisecond,
		Seed:              1,
	}
}

func mustClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
		case 2:
			panic(http.ErrAbortHandler) // dropped connection
		default:
			w.Write([]byte(`{"model":"m","instance":"i","best":{"bx":32,"by":4,"bz":4,"u":1,"c":2}}`))
		}
	}))
	defer ts.Close()

	c := mustClient(t, fastCfg(ts.URL))
	resp, err := c.Tune(context.Background(), wire.TuneRequest{Instance: wire.Instance{Kernel: wire.Named("laplacian"), Size: "64x64x64"}})
	if err != nil {
		t.Fatalf("Tune through transient faults: %v", err)
	}
	if resp.Body.Best != (wire.Vector{Bx: 32, By: 4, Bz: 4, U: 1, C: 2}) {
		t.Errorf("decoded best = %+v", resp.Body.Best)
	}
	if got := c.Attempts(); got != 3 {
		t.Errorf("attempts = %d, want 3 (503, drop, success)", got)
	}
}

func TestNeverRetriesDefinitive4xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"kernel needs a name, dsl or offsets"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c := mustClient(t, fastCfg(ts.URL))
	_, err := c.Tune(context.Background(), wire.TuneRequest{Instance: wire.Instance{Size: "64x64x64"}})
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("error = %v (%T), want *APIError", err, err)
	}
	if apiErr.StatusCode != http.StatusBadRequest || apiErr.Retryable() {
		t.Errorf("APIError = %+v, want non-retryable 400", apiErr)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls for a 400, want exactly 1 (no retries)", got)
	}
}

func TestBoundedRetriesOnPersistentFault(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := mustClient(t, fastCfg(ts.URL))
	_, err := c.Tune(context.Background(), wire.TuneRequest{Instance: wire.Instance{Kernel: wire.Named("blur"), Size: "64x64"}})
	if err == nil {
		t.Fatal("persistent 500 produced no error")
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("server saw %d calls, want exactly MaxAttempts=4", got)
	}
	if got := c.Retries(); got != 3 {
		t.Errorf("retries = %d, want 3", got)
	}
}

func TestHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"rate limit exceeded"}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"model":"m","instance":"i","best":{"bx":1,"by":1,"u":0,"c":1}}`))
	}))
	defer ts.Close()

	c := mustClient(t, fastCfg(ts.URL)) // jitter cap 5ms << the 1s hint
	start := time.Now()
	if _, err := c.Tune(context.Background(), wire.TuneRequest{Instance: wire.Instance{Kernel: wire.Named("blur"), Size: "64x64"}}); err != nil {
		t.Fatalf("Tune after 429: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Errorf("retried after %v, want >= ~1s per Retry-After", elapsed)
	}
}

func TestPerAttemptTimeoutRecovers(t *testing.T) {
	var calls atomic.Int64
	hang := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			select { // hang well past the per-attempt timeout
			case <-r.Context().Done():
			case <-hang:
			}
			return
		}
		w.Write([]byte(`{"model":"m","instance":"i","best":{"bx":1,"by":1,"u":0,"c":1}}`))
	}))
	defer ts.Close()
	// LIFO: the stuck handler must unblock before ts.Close drains it.
	defer close(hang)

	cfg := fastCfg(ts.URL)
	cfg.PerAttemptTimeout = 50 * time.Millisecond
	c := mustClient(t, cfg)
	if _, err := c.Tune(context.Background(), wire.TuneRequest{Instance: wire.Instance{Kernel: wire.Named("blur"), Size: "64x64"}}); err != nil {
		t.Fatalf("Tune through a hung first attempt: %v", err)
	}
	if got := c.Attempts(); got != 2 {
		t.Errorf("attempts = %d, want 2 (timeout, success)", got)
	}
}

func TestCallerContextCancelStopsRetrying(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	cfg := fastCfg(ts.URL)
	cfg.MaxAttempts = 1000
	cfg.BaseBackoff = 20 * time.Millisecond
	cfg.MaxBackoff = 50 * time.Millisecond
	c := mustClient(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Tune(ctx, wire.TuneRequest{Instance: wire.Instance{Kernel: wire.Named("blur"), Size: "64x64"}})
	if err == nil || ctx.Err() == nil {
		t.Fatalf("err = %v, want failure once the caller context expired", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("retry loop ran %v past a 100ms caller deadline", elapsed)
	}
	if got := c.Attempts(); got >= 1000 {
		t.Errorf("attempts = %d, retry loop ignored the caller context", got)
	}
}

// TestAgainstRealServer is the wire-compatibility test: the typed request
// and response structs must round-trip against the actual server handler,
// not a scripted double.
func TestAgainstRealServer(t *testing.T) {
	s, err := server.New(server.Config{ModelDir: "../store/testdata"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := mustClient(t, fastCfg(ts.URL))
	ctx := context.Background()

	tune, err := c.Tune(ctx, wire.TuneRequest{Instance: wire.Instance{Model: "tiny", Kernel: wire.Named("laplacian"), Size: "100x100x100"}})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if tune.Body.Best.Bx <= 0 || tune.Body.RankedCandidates <= 0 || tune.Body.Instance == "" {
		t.Errorf("tune response incompletely decoded: %+v", tune)
	}
	if tune.Cache != "miss" {
		t.Errorf("first tune X-Cache = %q, want miss", tune.Cache)
	}
	if again, _ := c.Tune(ctx, wire.TuneRequest{Instance: wire.Instance{Model: "tiny", Kernel: wire.Named("laplacian"), Size: "100x100x100"}}); again.Cache != "hit" {
		t.Errorf("repeat tune X-Cache = %q, want hit", again.Cache)
	}

	cands := []wire.Vector{{Bx: 32, By: 32, Bz: 4, U: 2, C: 2}, {Bx: 8, By: 512, Bz: 2, U: 0, C: 1}}
	rank, err := c.Rank(ctx, wire.RankRequest{Instance: wire.Instance{Model: "tiny", Kernel: wire.Named("laplacian"), Size: "128x128x128"}, Candidates: cands, ReturnScores: true})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if len(rank.Body.Order) != 2 || len(rank.Body.Scores) != 2 {
		t.Errorf("rank response incompletely decoded: %+v", rank)
	}

	pred, err := c.Predict(ctx, wire.PredictRequest{Instance: wire.Instance{Model: "tiny", Kernel: wire.Named("laplacian"), Size: "128x128x128"}, Vectors: cands, Mode: "score"})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if len(pred.Body.Values) != 2 || pred.Body.Unit != "score" {
		t.Errorf("predict response incompletely decoded: %+v", pred)
	}
	for i, s := range rank.Body.Scores {
		if pred.Body.Values[i] != s {
			t.Errorf("score[%d]: rank %v != predict %v", i, s, pred.Body.Values[i])
		}
	}

	// A malformed request is rejected definitively — no retry storm.
	before := c.Attempts()
	if _, err := c.Tune(ctx, wire.TuneRequest{Instance: wire.Instance{Kernel: wire.Named("no-such-kernel"), Size: "64x64"}}); err == nil {
		t.Error("unknown kernel tuned successfully?")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kernel error = %v, want APIError 400", err)
	}
	if got := c.Attempts() - before; got != 1 {
		t.Errorf("bad request cost %d attempts, want 1", got)
	}
}

// TestRequestIDStableAcrossRetries pins the correlation contract: one
// X-Request-ID per logical call, identical on every retry attempt, distinct
// across logical calls, and surfaced on the response struct.
func TestRequestIDStableAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get("X-Request-ID"))
		n := len(seen)
		mu.Unlock()
		if n < 3 {
			http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"model":"m","instance":"i","best":{"bx":1,"by":1,"u":0,"c":1}}`))
	}))
	defer ts.Close()

	c := mustClient(t, fastCfg(ts.URL))
	resp, err := c.Tune(context.Background(), wire.TuneRequest{Instance: wire.Instance{Kernel: wire.Named("blur"), Size: "64x64"}})
	if err != nil {
		t.Fatalf("Tune through sheds: %v", err)
	}
	mu.Lock()
	attempts := append([]string(nil), seen...)
	mu.Unlock()
	if len(attempts) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(attempts))
	}
	if attempts[0] == "" || len(attempts[0]) != 16 {
		t.Errorf("attempt X-Request-ID = %q, want 16 hex digits", attempts[0])
	}
	if attempts[1] != attempts[0] || attempts[2] != attempts[0] {
		t.Errorf("retries changed the request ID: %v", attempts)
	}
	if resp.RequestID != attempts[0] {
		t.Errorf("response RequestID = %q, want the wire ID %q", resp.RequestID, attempts[0])
	}

	again, err := c.Tune(context.Background(), wire.TuneRequest{Instance: wire.Instance{Kernel: wire.Named("blur"), Size: "64x64"}})
	if err != nil {
		t.Fatalf("second Tune: %v", err)
	}
	if again.RequestID == resp.RequestID {
		t.Errorf("two logical calls shared request ID %q", again.RequestID)
	}
}

// TestServerEchoesRequestID runs the client against the real middleware
// chain and checks the generated ID comes back on the response header — the
// round trip the README documents.
func TestServerEchoesRequestID(t *testing.T) {
	s, err := server.New(server.Config{ModelDir: "../store/testdata"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var echoed atomic.Value
	inspect := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(w, r)
			echoed.Store(w.Header().Get(middleware.RequestIDHeader))
		})
	}
	ts := httptest.NewServer(middleware.Chain(s.Handler(), inspect, middleware.RequestID()))
	defer ts.Close()

	c := mustClient(t, fastCfg(ts.URL))
	resp, err := c.Tune(context.Background(), wire.TuneRequest{Instance: wire.Instance{Kernel: wire.Named("laplacian"), Size: "64x64x64"}})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if got, _ := echoed.Load().(string); got != resp.RequestID || got == "" {
		t.Errorf("server echoed %q, client generated %q", got, resp.RequestID)
	}
}

func TestBackoffCappedWithFullJitter(t *testing.T) {
	c := mustClient(t, Config{BaseURL: "http://unused", BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, Seed: 42})
	for attempt := 1; attempt <= 20; attempt++ {
		for i := 0; i < 50; i++ {
			d := c.backoff(attempt, fmt.Errorf("transient"))
			ceil := c.cfg.BaseBackoff << (attempt - 1)
			if ceil > c.cfg.MaxBackoff || ceil <= 0 {
				ceil = c.cfg.MaxBackoff
			}
			if d < 0 || d > ceil {
				t.Fatalf("backoff(attempt=%d) = %v outside [0, %v]", attempt, d, ceil)
			}
		}
	}
	// Retry-After floors the jitter.
	rae := &retryAfterError{APIError: &APIError{StatusCode: 429}, after: 3 * time.Second}
	if d := c.backoff(1, rae); d < 3*time.Second {
		t.Errorf("backoff with Retry-After 3s = %v, want >= 3s", d)
	}
}

// TestTruncatedResponseIsDefinitive: a 200 body at the response-size cap is
// a truncation — the decoded JSON is garbage on this attempt and every
// retry, so the client must fail once with an error naming the limit
// instead of burning MaxAttempts on full backoff.
func TestTruncatedResponseIsDefinitive(t *testing.T) {
	var calls atomic.Int64
	big := strings.Repeat("x", 4096) // longer than the 1 KiB cap below
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		fmt.Fprintf(w, `{"model":"m","instance":"%s"`, big) // valid prefix, huge body
	}))
	defer ts.Close()

	cfg := fastCfg(ts.URL)
	cfg.MaxResponseBytes = 1024
	c := mustClient(t, cfg)
	_, err := c.Tune(context.Background(), wire.TuneRequest{Instance: wire.Instance{Kernel: wire.Named("blur"), Size: "64x64"}})
	if err == nil {
		t.Fatal("over-limit response produced no error")
	}
	if !strings.Contains(err.Error(), "1024-byte") {
		t.Errorf("error %q does not name the size limit", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls for a deterministic truncation, want exactly 1 (no retries)", got)
	}
}

// TestAtLimitResponseStillDecodes: a body exactly at the cap is not treated
// as truncated — the limit check reads one byte past the cap to tell the
// two apart.
func TestAtLimitResponseStillDecodes(t *testing.T) {
	payload := []byte(`{"model":"m","instance":"i","best":{"bx":8,"by":8,"u":0,"c":1}}`)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	}))
	defer ts.Close()

	cfg := fastCfg(ts.URL)
	cfg.MaxResponseBytes = int64(len(payload)) // exactly at the limit
	c := mustClient(t, cfg)
	resp, err := c.Tune(context.Background(), wire.TuneRequest{Instance: wire.Instance{Kernel: wire.Named("blur"), Size: "64x64"}})
	if err != nil {
		t.Fatalf("at-limit response: %v", err)
	}
	if resp.Body.Best != (wire.Vector{Bx: 8, By: 8, U: 0, C: 1}) {
		t.Errorf("decoded best = %+v", resp.Body.Best)
	}
}

// TestHonorsRetryAfterHTTPDate: RFC 9110 allows Retry-After as an HTTP-date
// as well as delay-seconds; the date form must floor the backoff too (it
// used to fall back silently to the millisecond jitter schedule).
func TestHonorsRetryAfterHTTPDate(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", time.Now().Add(1200*time.Millisecond).UTC().Format(http.TimeFormat))
			http.Error(w, `{"error":"maintenance"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"model":"m","instance":"i","best":{"bx":1,"by":1,"u":0,"c":1}}`))
	}))
	defer ts.Close()

	c := mustClient(t, fastCfg(ts.URL)) // jitter cap 5ms << the ~1.2s hint
	start := time.Now()
	if _, err := c.Tune(context.Background(), wire.TuneRequest{Instance: wire.Instance{Kernel: wire.Named("blur"), Size: "64x64"}}); err != nil {
		t.Fatalf("Tune after dated 503: %v", err)
	}
	// HTTP-dates have whole-second resolution, so the observed floor can be
	// up to a second under the nominal 1.2s; it must still clearly beat the
	// 5ms jitter cap.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("retried after %v, want a wait honoring the HTTP-date Retry-After", elapsed)
	}
}

// TestRetryAfterDateInPastFloorsToZero: a date at or before now yields no
// floor at all — the jittered schedule applies unchanged, and the wait
// never goes negative.
func TestRetryAfterDateInPastFloorsToZero(t *testing.T) {
	c := mustClient(t, fastCfg("http://unused"))
	mkResp := func(ra string) *http.Response {
		h := http.Header{}
		h.Set("Retry-After", ra)
		return &http.Response{Header: h}
	}
	apiErr := &APIError{StatusCode: http.StatusServiceUnavailable}

	past := c.rememberRetryAfter(apiErr, mkResp(time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)))
	var rae *retryAfterError
	if errors.As(past, &rae) {
		t.Errorf("past HTTP-date produced a floor of %v, want none", rae.after)
	}
	for i := 0; i < 100; i++ {
		if d := c.backoff(1, past); d < 0 || d > c.cfg.MaxBackoff {
			t.Fatalf("backoff after past-dated Retry-After = %v, want within the plain jitter schedule", d)
		}
	}

	future := c.rememberRetryAfter(apiErr, mkResp(time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat)))
	if !errors.As(future, &rae) || rae.after <= 0 || rae.after > 30*time.Second {
		t.Errorf("future HTTP-date floor = %v, want within (0s, 30s]", future)
	}

	if secs := c.rememberRetryAfter(apiErr, mkResp("7")); !errors.As(secs, &rae) || rae.after != 7*time.Second {
		t.Errorf("delay-seconds floor = %v, want 7s", secs)
	}
	if junk := c.rememberRetryAfter(apiErr, mkResp("soon-ish")); errors.As(junk, &rae) {
		t.Errorf("unparseable Retry-After produced a floor, want none")
	}
}
