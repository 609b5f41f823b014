// Command stencil-lb is the horizontal-scale front for a stencil-serve
// fleet: a consistent-hash load balancer that fans /v1/tune, /v1/rank,
// /v1/predict and /v1/observe over N backend replicas. Routing is keyed on
// the kernel-structure cache key, so requests that could share a cache
// entry or coalesce in a singleflight always land on the same replica and
// each replica's LRU holds a disjoint slice of the hot set — fleet cache
// capacity adds up instead of being replicated.
//
// Usage:
//
//	stencil-serve -models models -addr :8081 &
//	stencil-serve -models models -addr :8082 &
//	stencil-lb -addr :8080 -backends 127.0.0.1:8081,127.0.0.1:8082
//	curl -X POST -d '{"kernel":"laplacian","size":"128x128x128"}' localhost:8080/v1/tune
//
// Backends are health-checked via their /readyz probes and ejected from the
// ring after consecutive failures, then readmitted when they recover.
// Clients see the backends' wire schema unchanged, with Retry-After and
// X-Request-ID passed through both ways.
//
// POST /v1/models on the balancer — or SIGHUP to the process, or the
// one-shot -broadcast-reload mode — fans the SIGHUP-equivalent registry
// reload across every replica and verifies the fleet converges on one
// content-derived registry_generation. GET /lb/status shows the fleet as
// the balancer sees it; /metrics serves the stencillb_* series.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/lb"
	"repro/internal/middleware"
	"repro/internal/obs"
	"repro/internal/server"
)

type options struct {
	addr            string
	backends        string
	vnodes          int
	healthInterval  time.Duration
	healthTimeout   time.Duration
	ejectAfter      int
	readmitAfter    int
	maxBody         int64
	drain           time.Duration
	logFormat       string
	broadcastReload bool

	logger  *obs.Logger
	ready   chan<- net.Addr
	signals <-chan os.Signal
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stencil-lb: ")

	var opts options
	flag.StringVar(&opts.addr, "addr", ":8080", "listen address")
	flag.StringVar(&opts.backends, "backends", "", "comma-separated backend base URLs or host:port pairs (required)")
	flag.IntVar(&opts.vnodes, "vnodes", 128, "virtual ring points per backend; more points smooth the keyspace split")
	flag.DurationVar(&opts.healthInterval, "health-interval", 500*time.Millisecond, "backend /readyz probe period")
	flag.DurationVar(&opts.healthTimeout, "health-timeout", 2*time.Second, "per-probe timeout")
	flag.IntVar(&opts.ejectAfter, "eject-after", 2, "consecutive probe failures before a backend leaves the rotation")
	flag.IntVar(&opts.readmitAfter, "readmit-after", 2, "consecutive probe successes before an ejected backend returns")
	flag.Int64Var(&opts.maxBody, "max-body", server.DefaultMaxBodyBytes, "request body size cap in bytes; over-limit requests get 413 (0 or negative: the default)")
	flag.DurationVar(&opts.drain, "drain", 10*time.Second, "graceful-shutdown budget for draining in-flight requests")
	flag.StringVar(&opts.logFormat, "log-format", "text", "log output format: text or json")
	flag.BoolVar(&opts.broadcastReload, "broadcast-reload", false,
		"one-shot mode: fan a registry reload (POST /v1/models) across -backends, print per-replica results, exit 0 only if the fleet converges on one registry_generation")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Read())
		return
	}
	if opts.logFormat != "text" && opts.logFormat != "json" {
		log.Fatalf("-log-format %q: want text or json", opts.logFormat)
	}
	if opts.backends == "" {
		log.Fatal("-backends is required (comma-separated replica URLs)")
	}
	if err := run(opts); err != nil {
		log.Fatal(err)
	}
}

func splitBackends(s string) []string {
	var out []string
	for _, b := range strings.Split(s, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, b)
		}
	}
	return out
}

// run wires the balancer and serves until a shutdown signal; main minus
// flag parsing so tests can drive it directly.
func run(opts options) error {
	logger := opts.logger
	if logger == nil {
		logger = obs.NewLogger(os.Stderr, opts.logFormat)
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)

	balancer, err := lb.New(lb.Config{
		Backends:       splitBackends(opts.backends),
		VirtualNodes:   opts.vnodes,
		HealthInterval: opts.healthInterval,
		HealthTimeout:  opts.healthTimeout,
		EjectAfter:     opts.ejectAfter,
		ReadmitAfter:   opts.readmitAfter,
		MaxBodyBytes:   opts.maxBody,
		Logger:         logger.With(obs.F("component", "lb")),
		Registry:       reg,
	})
	if err != nil {
		return err
	}
	defer balancer.Close()

	if opts.broadcastReload {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		out := balancer.BroadcastReload(ctx)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(out)
		if !out.InLockstep {
			return fmt.Errorf("fleet did not converge on one registry_generation")
		}
		logger.Printf("fleet in lockstep on registry_generation %s", out.Generation)
		return nil
	}

	// The balancer reuses the serving hardening chain: correlation IDs on
	// everything, panic isolation above the proxy logic. Body caps live in
	// the proxy itself (it must read the body to route).
	handler := middleware.Chain(balancer.Handler(),
		middleware.RequestID(),
		middleware.Recover(logger, reg),
	)

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Printf("%s balancing %d backend(s) on %s", buildinfo.Read(), len(splitBackends(opts.backends)), ln.Addr())
	if opts.ready != nil {
		opts.ready <- ln.Addr()
	}

	sigc := opts.signals
	if sigc == nil {
		c := make(chan os.Signal, 1)
		signal.Notify(c, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
		sigc = c
	}
	// SIGHUP fans the reload across the fleet and keeps serving; anything
	// else starts the drain.
	for draining := false; !draining; {
		select {
		case err := <-errc:
			return err
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				out := balancer.BroadcastReload(context.Background())
				if out.InLockstep {
					logger.Printf("SIGHUP: fleet reloaded, in lockstep on registry_generation %s", out.Generation)
				} else {
					b, _ := json.Marshal(out.Results)
					logger.Printf("SIGHUP: fleet reload did NOT converge: %s", b)
				}
				continue
			}
			logger.Printf("received %v, draining in-flight requests (up to %v)", sig, opts.drain)
			draining = true
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), opts.drain)
	defer cancel()
	srv.Shutdown(ctx)
	logger.Printf("drained; bye")
	return nil
}
