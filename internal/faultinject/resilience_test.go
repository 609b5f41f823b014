package faultinject_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultinject"
	"repro/internal/middleware"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
)

// This file is the integration half of the resilience suite: the real
// server behind the real middleware chain behind the chaos proxy, driven
// by the real retrying client — the whole stack that cmd/stencil-serve and
// stencil-tune -server deploy, under injected failure. Runs under -race.

const fixtureModelDir = "../store/testdata"

// newStack builds the production middleware order around a live server
// handler, exactly as cmd/stencil-serve wires it.
func newStack(t *testing.T, extraRoutes func(*http.ServeMux)) (*server.Server, http.Handler) {
	t.Helper()
	s, err := server.New(server.Config{ModelDir: fixtureModelDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	if extraRoutes != nil {
		extraRoutes(mux)
	}
	h := middleware.Chain(
		middleware.JSONContentType()(http.TimeoutHandler(mux, 10*time.Second, `{"error":"request timed out"}`)),
		middleware.RequestID(),
		middleware.Recover(obs.NewLogger(io.Discard, "text"), s.ObsRegistry()),
		middleware.MaxBytes(1<<20, s.ObsRegistry()),
	)
	return s, h
}

// TestClientConvergesThroughFaultyProxy is the acceptance criterion: a
// deterministic 30% error rate plus connection drops and injected latency
// between client and server, and every tune call still completes — in
// bounded attempts, because retries are capped per call.
func TestClientConvergesThroughFaultyProxy(t *testing.T) {
	_, stack := newStack(t, nil)
	proxy := faultinject.New(stack, faultinject.Config{
		Seed:          42,
		ErrorRate:     0.30,
		DropRate:      0.05,
		Latency:       200 * time.Microsecond,
		LatencyJitter: 300 * time.Microsecond,
	})
	ts := httptest.NewServer(proxy)
	defer ts.Close()

	c, err := client.New(client.Config{
		BaseURL:           ts.URL,
		ClientID:          "resilience-suite",
		MaxAttempts:       8,
		PerAttemptTimeout: 5 * time.Second,
		BaseBackoff:       time.Millisecond,
		MaxBackoff:        10 * time.Millisecond,
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}

	const calls = 30
	ctx := context.Background()
	for i := 0; i < calls; i++ {
		resp, err := c.Tune(ctx, wire.TuneRequest{Instance: wire.Instance{
			Model:  "tiny",
			Kernel: wire.Named("laplacian"),
			Size:   fmt.Sprintf("%dx96x96", 64+i), // distinct instances: real inferences, not one cached answer
		}})
		if err != nil {
			t.Fatalf("tune %d failed through the fault proxy: %v", i, err)
		}
		if resp.Body.Best.Bx <= 0 || resp.Body.Best.By <= 0 {
			t.Fatalf("tune %d: implausible best vector %+v", i, resp.Body.Best)
		}
	}

	attempts, requests := c.Attempts(), proxy.Requests()
	t.Logf("%d calls converged: %d client attempts, %d proxied requests, %d injected errors, %d drops",
		calls, attempts, requests, proxy.Errors(), proxy.Drops())
	if attempts < calls {
		t.Errorf("attempts %d < calls %d: impossible accounting", attempts, calls)
	}
	if max := int64(calls * 8); attempts > max {
		t.Errorf("attempts = %d, exceeds the MaxAttempts bound %d — retries are unbounded", attempts, max)
	}
	if proxy.Errors() == 0 && proxy.Drops() == 0 {
		t.Error("proxy injected no faults; the test proved nothing")
	}
}

// TestPanicLeavesServerServing mounts a panicking route on a real listener
// next to the tuning API, behind the production Recover middleware: the
// panicking request gets a JSON 500, the process-level metric increments,
// and the API keeps answering on the same server afterwards.
func TestPanicLeavesServerServing(t *testing.T) {
	s, stack := newStack(t, func(mux *http.ServeMux) {
		mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
			panic("injected handler panic")
		})
	})
	ts := httptest.NewServer(stack)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/boom")
		if err != nil {
			t.Fatalf("panicking route %d: transport error %v — the panic killed the connection instead of yielding 500", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking route: status %d, want 500", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("panic response Content-Type = %q, want application/json", ct)
		}
	}
	if got := int64(s.ObsRegistry().Value("stencilserve_panics_total")); got != 3 {
		t.Errorf("panics_total = %d, want 3", got)
	}

	// The same server instance still answers real tuning traffic.
	resp, err := http.Post(ts.URL+"/v1/tune", "application/json",
		jsonBody(`{"model":"tiny","kernel":"laplacian","size":"100x100x100"}`))
	if err != nil {
		t.Fatalf("tune after panics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("tune after panics: status %d: %s", resp.StatusCode, b)
	}
}

// TestRateLimitShedsAndRecoversOverHTTP drives the full chain with a tight
// limiter: a burst past the bucket sheds 429 with Retry-After, and waiting
// out the advertised interval restores 200s.
func TestRateLimitShedsAndRecoversOverHTTP(t *testing.T) {
	s, err := server.New(server.Config{ModelDir: fixtureModelDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	limiter := middleware.NewRateLimiter(10, 3, s.ObsRegistry())
	stack := middleware.Chain(s.Handler(),
		middleware.RequestID(),
		middleware.Recover(obs.NewLogger(io.Discard, "text"), s.ObsRegistry()),
		limiter.Middleware(),
	)
	ts := httptest.NewServer(stack)
	defer ts.Close()

	tune := func() *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/tune",
			jsonBody(`{"model":"tiny","kernel":"laplacian","size":"100x100x100"}`))
		req.Header.Set("X-Client-ID", "bursty")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	var shed *http.Response
	for i := 0; i < 10 && shed == nil; i++ {
		if resp := tune(); resp.StatusCode == http.StatusTooManyRequests {
			shed = resp
		}
	}
	if shed == nil {
		t.Fatal("a 10-request burst against burst=3 never produced a 429")
	}
	ra, err := time.ParseDuration(shed.Header.Get("Retry-After") + "s")
	if err != nil || ra <= 0 {
		t.Fatalf("429 Retry-After %q unusable", shed.Header.Get("Retry-After"))
	}
	time.Sleep(ra + 50*time.Millisecond)
	if resp := tune(); resp.StatusCode != http.StatusOK {
		t.Errorf("request after honoring Retry-After: status %d, want 200", resp.StatusCode)
	}
	if got := int64(s.ObsRegistry().Value("stencilserve_rate_limited_total")); got == 0 {
		t.Error("rate_limited_total never incremented")
	}
}

func jsonBody(s string) io.Reader { return strings.NewReader(s) }
