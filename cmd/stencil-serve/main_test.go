package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

const fixtureModelDir = "../../internal/store/testdata"

// startRun launches run() with test hooks and returns the bound address,
// the signal injector, the Close-audit counter and the run result channel.
func startRun(t *testing.T, opts options) (net.Addr, chan<- os.Signal, *atomic.Int64, <-chan error) {
	t.Helper()
	ready := make(chan net.Addr, 1)
	signals := make(chan os.Signal, 1)
	var closed atomic.Int64
	opts.ready = ready
	opts.signals = signals
	opts.logger = obs.NewLogger(io.Discard, "text")
	opts.onClosed = func() { closed.Add(1) }
	done := make(chan error, 1)
	go func() { done <- run(opts) }()
	select {
	case addr := <-ready:
		return addr, signals, &closed, done
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
		return nil, nil, nil, nil
	}
}

func serveOpts() options {
	return options{
		models:       fixtureModelDir,
		addr:         "127.0.0.1:0",
		cacheSize:    64,
		timeout:      10 * time.Second,
		drain:        10 * time.Second,
		maxBody:      1 << 20,
		measureQueue: 2,
	}
}

// TestGracefulShutdown exercises the full SIGTERM choreography with a
// deterministically in-flight request: a tune whose body arrives in two
// halves, the second only after the shutdown signal. The request must
// complete with a 200 during the drain window, new connections must be
// refused once draining starts, and the Close audit chain must run exactly
// once.
func TestGracefulShutdown(t *testing.T) {
	addr, signals, closed, done := startRun(t, serveOpts())
	base := "http://" + addr.String()

	// Sanity: the stack serves normal traffic before shutdown.
	resp, err := http.Post(base+"/v1/tune", "application/json",
		strings.NewReader(`{"model":"tiny","kernel":"laplacian","size":"96x96x96"}`))
	if err != nil {
		t.Fatalf("tune before shutdown: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tune before shutdown: status %d", resp.StatusCode)
	}

	// Park a request in-flight: send the headers and half the body over a
	// raw connection, so the handler is blocked reading the rest.
	body := `{"model":"tiny","kernel":"laplacian","size":"97x97x97"}`
	half := len(body) / 2
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/tune HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		addr.String(), len(body), body[:half])
	time.Sleep(50 * time.Millisecond) // let the server accept and start reading

	signals <- syscall.SIGTERM

	// New connections are refused once the listener closes. (Shutdown
	// closes listeners first, then waits out in-flight requests.)
	refused := false
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
		c, err := net.DialTimeout("tcp", addr.String(), 200*time.Millisecond)
		if err != nil {
			refused = true
			break
		}
		c.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !refused {
		t.Error("new connections still accepted 3s after SIGTERM")
	}
	select {
	case err := <-done:
		t.Fatalf("run returned %v with a request still in flight — drain did not wait", err)
	default:
	}

	// Complete the parked request; it must finish with a real 200 inside
	// the drain window.
	if _, err := io.WriteString(conn, body[half:]); err != nil {
		t.Fatalf("completing in-flight body: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(conn)
	if err != nil && len(reply) == 0 {
		t.Fatalf("reading in-flight response: %v", err)
	}
	if !strings.HasPrefix(string(reply), "HTTP/1.1 200") {
		t.Fatalf("in-flight request during drain got %.80q, want HTTP/1.1 200", reply)
	}
	if !strings.Contains(string(reply), `"best"`) {
		t.Errorf("in-flight response lacks a tuning result: %.200q", reply)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after the drained request completed")
	}
	if got := closed.Load(); got != 1 {
		t.Errorf("Close audit chain ran %d times, want exactly 1", got)
	}
}

// TestShutdownIdleFast: with no traffic in flight, SIGTERM must land a
// clean exit well inside the drain budget, and still run Close once.
func TestShutdownIdleFast(t *testing.T) {
	_, signals, closed, done := startRun(t, serveOpts())
	start := time.Now()
	signals <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle shutdown took longer than 5s")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("idle shutdown took %v, want well under the 10s drain budget", elapsed)
	}
	if got := closed.Load(); got != 1 {
		t.Errorf("Close audit chain ran %d times, want exactly 1", got)
	}
}

// TestRunRejectsMissingModelDir: startup failures surface as errors, not
// a half-started server.
func TestRunRejectsMissingModelDir(t *testing.T) {
	opts := serveOpts()
	opts.models = "no-such-dir"
	opts.logger = obs.NewLogger(io.Discard, "text")
	if err := run(opts); err == nil {
		t.Fatal("run with a missing model dir returned nil")
	}
}

// modelsDoc is the slice of GET /v1/models this file asserts on.
type modelsDoc struct {
	Default         string `json:"default"`
	RegistryVersion int64  `json:"registry_version"`
}

func getModels(t *testing.T, base string) modelsDoc {
	t.Helper()
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatalf("GET /v1/models: %v", err)
	}
	defer resp.Body.Close()
	var doc modelsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding /v1/models: %v", err)
	}
	return doc
}

// TestSIGHUPReloadsRegistry: HUP must hot-swap the model registry in place —
// the generation counter advances and the server keeps answering — without
// any drain or restart.
func TestSIGHUPReloadsRegistry(t *testing.T) {
	addr, signals, closed, done := startRun(t, serveOpts())
	base := "http://" + addr.String()
	if doc := getModels(t, base); doc.RegistryVersion != 1 {
		t.Fatalf("fresh server serves registry generation %d, want 1", doc.RegistryVersion)
	}

	signals <- syscall.SIGHUP
	deadline := time.Now().Add(5 * time.Second)
	for getModels(t, base).RegistryVersion < 2 {
		if time.Now().After(deadline) {
			t.Fatal("registry generation never advanced after SIGHUP")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := closed.Load(); got != 0 {
		t.Fatalf("SIGHUP ran the Close chain %d times — it must not shut anything down", got)
	}

	// The swapped registry answers real requests.
	resp, err := http.Post(base+"/v1/tune", "application/json",
		strings.NewReader(`{"model":"tiny","kernel":"laplacian","size":"96x96x96"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tune after SIGHUP reload: status %d", resp.StatusCode)
	}

	signals <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("run returned %v after SIGHUP + SIGTERM, want nil", err)
	}
}

// TestPprofOnPrivateListenerOnly: -pprof-addr serves the profiling UI on its
// own listener, and the public API port must NOT route /debug/pprof.
func TestPprofOnPrivateListenerOnly(t *testing.T) {
	opts := serveOpts()
	opts.pprofAddr = "127.0.0.1:0"
	pready := make(chan net.Addr, 1)
	opts.pprofReady = pready
	addr, signals, _, done := startRun(t, opts)
	defer func() { signals <- syscall.SIGTERM; <-done }()

	paddr := <-pready
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get("http://" + paddr.String() + path)
		if err != nil {
			t.Fatalf("GET %s on pprof listener: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s on pprof listener: status %d, want 200", path, resp.StatusCode)
		}
	}

	resp, err := http.Get("http://" + addr.String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("public port served /debug/pprof with status %d, want 404", resp.StatusCode)
	}
}

// TestObserveRetrainPromoteLifecycle drives the whole learning loop through
// the real binary wiring: client observations land in the WAL via
// /v1/observe, the count trigger retrains, the canary promotes, and the
// serving registry hot-swaps to the new model — all without a restart.
func TestObserveRetrainPromoteLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped in -short")
	}
	models := t.TempDir()
	// The fixture store is read-only testdata; the retrain worker writes
	// candidates next to the incumbent, so run against a writable clone.
	if err := os.CopyFS(models, os.DirFS(fixtureModelDir)); err != nil {
		t.Fatal(err)
	}
	opts := serveOpts()
	opts.models = models
	opts.wal = t.TempDir()
	opts.retrainMin = 4
	opts.retrainPoints = 192
	opts.retrainPoll = 50 * time.Millisecond
	addr, signals, _, done := startRun(t, opts)
	defer func() { signals <- syscall.SIGTERM; <-done }()
	base := "http://" + addr.String()

	resp, err := http.Post(base+"/v1/observe", "application/json", strings.NewReader(
		`{"kernel":"laplacian","size":"64x64x64","machine":"e2e-client","observations":[
			{"vector":{"bx":32,"by":8,"bz":4,"u":2,"c":1},"runtime_seconds":0.010},
			{"vector":{"bx":16,"by":16,"bz":2,"u":1,"c":1},"runtime_seconds":0.014},
			{"vector":{"bx":8,"by":4,"bz":2,"u":1,"c":1},"runtime_seconds":0.019},
			{"vector":{"bx":4,"by":4,"bz":4,"u":1,"c":1},"runtime_seconds":0.023}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Accepted int `json:"accepted"`
		Dropped  int `json:"dropped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ack.Accepted != 4 || ack.Dropped != 0 {
		t.Fatalf("observe: status %d accepted %d dropped %d, want 202/4/0", resp.StatusCode, ack.Accepted, ack.Dropped)
	}

	// The count trigger fires, the candidate passes the canary (no loadable
	// incumbent named by the pointer -> first promotion), and OnPromote
	// hot-swaps the registry.
	deadline := time.Now().Add(2 * time.Minute)
	var doc modelsDoc
	for {
		doc = getModels(t, base)
		if doc.Default == "retrained-v1" && doc.RegistryVersion >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no promotion observed: /v1/models = %+v", doc)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The promoted model actually serves.
	resp, err = http.Post(base+"/v1/tune", "application/json",
		strings.NewReader(`{"model":"retrained-v1","kernel":"laplacian","size":"64x64x64"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"best"`) {
		t.Fatalf("tune on promoted model: status %d body %.200q", resp.StatusCode, b)
	}
}

// TestTimeoutBodyIsJSONOverRealBinaryStack verifies satellite (b) in the
// deployed wiring, not just the middleware unit test: a request that
// outlives -timeout gets a 503 with Content-Type application/json and a
// parseable body.
func TestTimeoutBodyIsJSONOverRealBinaryStack(t *testing.T) {
	opts := serveOpts()
	opts.timeout = 100 * time.Millisecond
	addr, signals, _, done := startRun(t, opts)
	defer func() { signals <- syscall.SIGTERM; <-done }()

	// A measure-mode predict on a large grid comfortably outlives 100ms.
	resp, err := http.Post("http://"+addr.String()+"/v1/predict", "application/json",
		strings.NewReader(`{"model":"tiny","kernel":"laplacian","size":"192x192x192","mode":"measure","vectors":[{"bx":32,"by":4,"bz":4,"u":1,"c":2},{"bx":16,"by":8,"bz":4,"u":2,"c":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Skipf("request finished with %d before the timeout fired on this machine", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("timeout response Content-Type = %q, want application/json", ct)
	}
	if !strings.Contains(string(b), `"error"`) {
		t.Errorf("timeout body %q is not the JSON error payload", b)
	}
}
