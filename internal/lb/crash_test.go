package lb

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// Resilience with a real process kill: one replica of a two-backend fleet
// is a spawned child process that gets SIGKILLed mid-run. The contract:
//
//   - every client request converges on an answer throughout — transport
//     failover inside the balancer plus the client's retries mean the kill
//     loses no request;
//   - the balancer ejects the dead replica once the probes notice, and
//     readmits it after a restart on the same address;
//   - after readmission the replica takes traffic again (the ring
//     assignment survives the bounce, so its share of the keyspace comes
//     back to it).

const (
	lbCrashHelperEnv = "LB_CRASH_HELPER"
	lbCrashModelsEnv = "LB_CRASH_MODELS"
	lbCrashAddrEnv   = "LB_CRASH_ADDR"
	lbCrashFileEnv   = "LB_CRASH_ADDRFILE"
)

// TestLBBackendHelper is the replica child: a real stencil server on a real
// socket, serving until killed. A no-op unless spawned with the helper
// environment set.
func TestLBBackendHelper(t *testing.T) {
	if os.Getenv(lbCrashHelperEnv) != "1" {
		t.Skip("lb crash helper: only runs as a spawned child")
	}
	s, err := server.New(server.Config{ModelDir: os.Getenv(lbCrashModelsEnv), CacheSize: 256})
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper server: %v\n", err)
		os.Exit(2)
	}
	addr := os.Getenv(lbCrashAddrEnv)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper listen %s: %v\n", addr, err)
		os.Exit(2)
	}
	// Report the bound address atomically so the parent never reads a torn
	// file.
	file := os.Getenv(lbCrashFileEnv)
	tmp := file + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		os.Exit(2)
	}
	os.Rename(tmp, file)
	http.Serve(ln, s.Handler())
}

// spawnReplica starts the child replica and returns its base URL and the
// process handle. addr pins the listen address ("" = pick one).
func spawnReplica(t *testing.T, modelsDir, addr, addrFile string) (string, *exec.Cmd) {
	t.Helper()
	os.Remove(addrFile)
	cmd := exec.Command(os.Args[0], "-test.run", "^TestLBBackendHelper$")
	cmd.Env = append(os.Environ(),
		lbCrashHelperEnv+"=1",
		lbCrashModelsEnv+"="+modelsDir,
		lbCrashAddrEnv+"="+addr,
		lbCrashFileEnv+"="+addrFile,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			url := "http://" + string(b)
			// The address file lands before Serve enters its accept loop;
			// wait until the replica actually answers.
			c := &http.Client{Timeout: time.Second}
			for time.Now().Before(deadline) {
				if resp, err := c.Get(url + "/readyz"); err == nil {
					resp.Body.Close()
					return url, cmd
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("spawned replica never reported a serving address")
	return "", nil
}

func TestReplicaSIGKILLMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := newStoreDir(t)
	stable := startBackend(t, dir)
	addrFile := filepath.Join(t.TempDir(), "addr")
	victimURL, victim := spawnReplica(t, dir, "", addrFile)

	b := newBalancer(t, Config{
		Backends:       []string{stable, victimURL},
		HealthInterval: 20 * time.Millisecond,
		EjectAfter:     2,
		ReadmitAfter:   2,
	})
	front := httptest.NewServer(b.Handler())
	t.Cleanup(front.Close)
	cl, err := client.New(client.Config{
		BaseURL:           front.URL,
		MaxAttempts:       8,
		PerAttemptTimeout: 5 * time.Second,
		BaseBackoff:       20 * time.Millisecond,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	sent := 0
	mustTune := func(phase string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			size := fmt.Sprintf("%dx%dx%d", 40+sent%32, 40+sent%32, 40+sent%32)
			sent++
			if _, err := cl.Tune(ctx, wire.TuneRequest{Instance: wire.Instance{Kernel: wire.Named("laplacian"), Size: size}}); err != nil {
				t.Fatalf("%s: request %d lost: %v", phase, sent, err)
			}
		}
	}
	healthyCount := func() int {
		n := 0
		for _, be := range b.backends {
			if be.healthy.Load() {
				n++
			}
		}
		return n
	}

	waitFor(t, "both replicas in rotation", func() bool { return healthyCount() == 2 })
	mustTune("healthy fleet", 16)

	// SIGKILL the victim mid-run. Requests keep flowing immediately: the
	// kill window before ejection is covered by per-request transport
	// failover, after it by the ring skipping the dead replica.
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()
	mustTune("kill window", 24)
	waitFor(t, "victim ejection", func() bool { return healthyCount() == 1 })
	if got := b.cfg.Registry.Value("stencillb_ejections_total", victimURL); got != 1 {
		t.Fatalf("ejections for killed replica = %v, want 1", got)
	}
	mustTune("degraded fleet", 16)

	// Restart on the same address; the probes must readmit it.
	victimAddr := victimURL[len("http://"):]
	restartedURL, _ := spawnReplica(t, dir, victimAddr, addrFile)
	if restartedURL != victimURL {
		t.Fatalf("restarted replica on %s, want the original %s", restartedURL, victimURL)
	}
	waitFor(t, "victim readmission", func() bool { return healthyCount() == 2 })
	if got := b.cfg.Registry.Value("stencillb_readmissions_total", victimURL); got != 1 {
		t.Fatalf("readmissions for restarted replica = %v, want 1", got)
	}

	// The readmitted replica takes traffic again: its request counter moves
	// while fresh keys spread over the ring.
	before := b.cfg.Registry.Value("stencillb_backend_requests_total", victimURL)
	mustTune("recovered fleet", 32)
	if after := b.cfg.Registry.Value("stencillb_backend_requests_total", victimURL); after <= before {
		t.Fatalf("restarted replica took no traffic after readmission (%v -> %v)", before, after)
	}
	// Zero lost requests across kill, ejection, restart and readmission is
	// the assertion; mustTune already failed the test otherwise.
}
