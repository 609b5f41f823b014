// Command stencil-serve is the tuning-as-a-service daemon: it loads trained
// ranking models from a persistent store directory (written by
// stencil-train -save) and serves tuning, ranking and prediction over an
// HTTP JSON API with response caching, request coalescing and a production
// hardening chain — panic isolation, per-client rate limiting, request-size
// caps, measure-mode admission control and liveness/readiness probes.
//
// Usage:
//
//	stencil-train -points 3840 -save models
//	stencil-serve -models models -addr :8080
//	curl -X POST -d '{"kernel":"laplacian","size":"128x128x128"}' localhost:8080/v1/tune
//
// Endpoints: POST /v1/tune, /v1/rank, /v1/predict, /v1/observe; GET
// /v1/models, /healthz, /readyz, /metrics (Prometheus text format). See the
// README's "Serving tuned models", "Operating under load", "Online learning
// & model lifecycle" and "Observability" sections for the schema, the
// overload semantics, the retrain loop and the metric catalog.
//
// With -wal the daemon keeps a durable observation log and serves
// /v1/observe; adding -retrain-every or -retrain-min starts a background
// worker that refits the model on logged observations and hot-swaps the
// registry when the canary gate passes. SIGHUP reloads the model registry
// in place (picking up externally promoted or newly saved artifacts), and
// -pprof-addr exposes /debug/pprof on its own private listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/exec"
	"repro/internal/middleware"
	"repro/internal/obs"
	"repro/internal/retrain"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wal"
)

// options carries the parsed flags plus the hooks the graceful-shutdown
// test injects (ready reports the bound address, signals replaces the OS
// signal feed, onClosed observes the Close audit chain).
type options struct {
	models        string
	addr          string
	cacheSize     int
	timeout       time.Duration
	drain         time.Duration
	maxBody       int64
	measureQueue  int
	rateLimit     float64
	rateBurst     int
	wal           string
	retrainEvery  time.Duration
	retrainMin    int
	retrainPoints int
	canaryHoldout float64
	pprofAddr     string
	logFormat     string

	logger      *obs.Logger
	ready       chan<- net.Addr
	pprofReady  chan<- net.Addr
	signals     <-chan os.Signal
	onClosed    func()
	retrainPoll time.Duration // test hook: WAL count-trigger poll cadence
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stencil-serve: ")

	var opts options
	flag.StringVar(&opts.models, "models", "models", "model store directory (written by stencil-train -save)")
	flag.StringVar(&opts.addr, "addr", ":8080", "listen address")
	flag.IntVar(&opts.cacheSize, "cache", 4096, "response cache capacity in entries (sharded LRU)")
	flag.DurationVar(&opts.timeout, "timeout", 30*time.Second, "per-request timeout; expiry cancels the request context and stops evaluation work")
	flag.DurationVar(&opts.drain, "drain", 10*time.Second, "graceful-shutdown budget for draining in-flight requests")
	flag.Int64Var(&opts.maxBody, "max-body", server.DefaultMaxBodyBytes, "request body size cap in bytes; over-limit requests get 413 (0 or negative: the default)")
	flag.IntVar(&opts.measureQueue, "measure-queue", 8, "bounded queue depth for measure-mode requests; arrivals past it are shed with 503")
	flag.Float64Var(&opts.rateLimit, "rate-limit", 0, "per-client request rate limit in req/s (keyed by X-Client-ID or remote host; 0 = unlimited)")
	flag.IntVar(&opts.rateBurst, "rate-burst", 10, "token-bucket burst capacity per client when -rate-limit is set")
	flag.StringVar(&opts.wal, "wal", "", "observation WAL directory; enables /v1/observe and durable measure-mode logging (empty = disabled)")
	flag.DurationVar(&opts.retrainEvery, "retrain-every", 0, "schedule trigger: background-retrain from the WAL at most this often (0 = no timer; requires -wal)")
	flag.IntVar(&opts.retrainMin, "retrain-min", 0, "count trigger: retrain as soon as this many new observations accumulate (0 = no count trigger; requires -wal)")
	flag.IntVar(&opts.retrainPoints, "retrain-points", 0, "synthetic base-set size mixed into each retrain (0 = default 384)")
	flag.Float64Var(&opts.canaryHoldout, "canary-holdout", 0.2, "fraction of the synthetic base held out for the promotion canary gate")
	flag.StringVar(&opts.pprofAddr, "pprof-addr", "", "separate listen address for /debug/pprof (empty = disabled; never served on -addr)")
	flag.StringVar(&opts.logFormat, "log-format", "text", "log output format: text or json (structured; one object per line)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Read())
		return
	}
	if opts.logFormat != "text" && opts.logFormat != "json" {
		log.Fatalf("-log-format %q: want text or json", opts.logFormat)
	}
	if err := run(opts); err != nil {
		log.Fatal(err)
	}
}

// run builds the hardened handler stack, serves until a shutdown signal or
// listener error, then drains and releases the Close audit chain. It is
// main minus flag parsing, so the shutdown tests drive it directly.
func run(opts options) error {
	logger := opts.logger
	if logger == nil {
		logger = obs.NewLogger(os.Stderr, opts.logFormat)
	}

	// One registry backs everything: the server's counters and histograms,
	// the middleware chain's guards, the retrain worker and the Go runtime
	// gauges all scrape out through the server's /metrics.
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)

	// The WAL opens before the server so startup fails loudly on an
	// unrecoverable log, and closes after it (deferred) so the server's
	// observation sink can flush during Close.
	var walLog *wal.Log
	if opts.wal != "" {
		l, rep, err := wal.Open(opts.wal, wal.Options{})
		if err != nil {
			return fmt.Errorf("opening WAL %s: %w", opts.wal, err)
		}
		defer l.Close()
		if rep.Clean() {
			logger.Printf("wal: %s holds %d observation(s)", opts.wal, rep.Records)
		} else {
			logger.Printf("wal: recovered %s with %d observation(s): %d corrupt frame(s) skipped, %d segment(s) abandoned, %d torn byte(s) dropped",
				opts.wal, rep.Records, rep.CorruptFrames, rep.SkippedSegments, rep.TornBytes)
		}
		walLog = l
	}

	s, err := server.New(server.Config{
		ModelDir:          opts.models,
		CacheSize:         opts.cacheSize,
		MaxBodyBytes:      opts.maxBody,
		MeasureQueueDepth: opts.measureQueue,
		WAL:               walLog,
		Registry:          reg,
		AccessLog:         logger.With(obs.F("component", "http")),
	})
	if err != nil {
		return err
	}
	names, def := s.Models()
	logger.Printf("loaded %d model(s) from %s: %v (default %q)", len(names), opts.models, names, def)
	// Measured runtimes depend on which generic row body the executor runs.
	logger.Printf("executor: generic row body %s", exec.GenericBody())

	// Background retrain loop: tails the WAL, refits on the configured
	// trigger, and hot-swaps the registry when the canary gate promotes.
	if walLog != nil && (opts.retrainEvery > 0 || opts.retrainMin > 0) {
		st, err := store.Open(opts.models)
		if err != nil {
			return err
		}
		worker, err := retrain.New(retrain.Config{
			WALDir:          opts.wal,
			Store:           st,
			Interval:        opts.retrainEvery,
			MinRecords:      opts.retrainMin,
			PollInterval:    opts.retrainPoll,
			HoldoutFraction: opts.canaryHoldout,
			BasePoints:      opts.retrainPoints,
			Logger:          logger.With(obs.F("component", "retrain")),
			Registry:        reg,
			OnPromote: func(name string) {
				if v, err := s.ReloadModels(); err != nil {
					logger.Printf("retrain: promoted %s but registry reload failed: %v", name, err)
				} else {
					logger.Printf("retrain: promoted %s, registry now generation %d", name, v)
				}
			},
		})
		if err != nil {
			return err
		}
		go worker.Run()
		defer worker.Stop()
		logger.Printf("retrain worker: every=%v min-records=%d holdout=%.2f", opts.retrainEvery, opts.retrainMin, opts.canaryHoldout)
	}

	// Diagnostics on a private listener: the public mux never routes
	// /debug/pprof, so profiling cannot leak through -addr.
	if opts.pprofAddr != "" {
		pln, err := net.Listen("tcp", opts.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: pmux}
		go psrv.Serve(pln)
		defer psrv.Close()
		logger.Printf("pprof listening on %s (diagnostics only; keep private)", pln.Addr())
		if opts.pprofReady != nil {
			opts.pprofReady <- pln.Addr()
		}
	}

	// Innermost: the API mux under the request timeout, with the JSON
	// content-type defaulter repairing TimeoutHandler's bare error body.
	handler := http.Handler(s.Handler())
	if opts.timeout > 0 {
		handler = middleware.JSONContentType()(
			http.TimeoutHandler(handler, opts.timeout, `{"error":"request timed out"}`))
	}
	// Outermost to innermost: correlation IDs on everything (panic logs
	// included), panic isolation above all request logic, rate limiting
	// before any body handling, then the size cap.
	limiter := middleware.NewRateLimiter(opts.rateLimit, opts.rateBurst, reg)
	handler = middleware.Chain(handler,
		middleware.RequestID(),
		middleware.Recover(logger, reg),
		limiter.Middleware(),
		middleware.MaxBytes(opts.maxBody, reg),
	)

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Printf("%s listening on %s", buildinfo.Read(), ln.Addr())
	if opts.ready != nil {
		opts.ready <- ln.Addr()
	}

	sigc := opts.signals
	if sigc == nil {
		c := make(chan os.Signal, 1)
		signal.Notify(c, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
		sigc = c
	}
	// SIGHUP hot-swaps the model registry and keeps serving; anything else
	// starts the drain. A failed reload leaves the running generation
	// untouched, so HUP is always safe to send.
	for draining := false; !draining; {
		select {
		case err := <-errc:
			return err
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				if v, err := s.ReloadModels(); err != nil {
					logger.Printf("SIGHUP: reload failed, generation %d keeps serving: %v", s.RegistryVersion(), err)
				} else {
					names, def := s.Models()
					logger.Printf("SIGHUP: registry generation %d serves %d model(s) (default %q): %v", v, len(names), def, names)
				}
				continue
			}
			logger.Printf("received %v, draining in-flight requests (up to %v)", sig, opts.drain)
			draining = true
		}
	}

	// Drain: flip /readyz so balancers stop routing here, stop accepting,
	// finish in-flight tunes, then release the Close audit chain (the
	// measuring executor's worker pool, when it ever started) exactly once.
	s.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), opts.drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	s.Close()
	if opts.onClosed != nil {
		opts.onClosed()
	}
	logger.Printf("drained; bye")
	return nil
}
