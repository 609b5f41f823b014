// Command stencil-load is the closed-form load generator for the serving
// stack: it drives a stencil-serve instance (or a stencil-lb fleet — the
// wire schema is identical) with a Zipf-skewed stream of tuning requests
// and reports sustained throughput and coordinated-omission-aware latency
// percentiles.
//
// The request stream models real autotuning traffic: a catalog of distinct
// kernel structures whose popularity follows a Zipf law (a hot head of
// structures dominates, a long tail stays cold — the regime the response
// cache and the consistent-hash split are built for), a configurable
// tune/rank/predict mix, and open-loop arrivals at a target rate with
// bounded worker concurrency. Latency is measured from each request's
// *scheduled* arrival, not its send time, so queueing delay when the
// service falls behind is charged to the service, not hidden by the
// generator slowing down.
//
// Usage:
//
//	stencil-load -target http://127.0.0.1:8080 -rate 500 -duration 30s
//	stencil-load -target http://127.0.0.1:8080 -label lb-4 -out BENCH_load.json
//
// With -out the run is merged under its -label into a BENCH_load.json
// (existing labels for other runs are preserved), which is how the repo's
// single-backend vs. balanced-fleet comparison is produced.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/client"
	"repro/internal/wire"
)

type options struct {
	target      string
	label       string
	out         string
	rate        float64
	duration    time.Duration
	warmup      time.Duration
	concurrency int
	catalog     int
	zipfS       float64
	mix         string
	seed        int64
	maxAttempts int
	timeout     time.Duration
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stencil-load: ")

	var opts options
	flag.StringVar(&opts.target, "target", "http://127.0.0.1:8080", "base URL of the service under load (stencil-serve or stencil-lb)")
	flag.StringVar(&opts.label, "label", "run", "name for this run in the -out report, e.g. direct-1 or lb-4")
	flag.StringVar(&opts.out, "out", "", "merge results under -label into this JSON report (empty = stdout only)")
	flag.Float64Var(&opts.rate, "rate", 500, "open-loop arrival rate in requests/second")
	flag.DurationVar(&opts.duration, "duration", 10*time.Second, "measured load duration (after -warmup)")
	flag.DurationVar(&opts.warmup, "warmup", time.Second, "initial traffic excluded from the statistics")
	flag.IntVar(&opts.concurrency, "concurrency", 64, "bounded worker pool; arrivals past it are counted as overload drops, not delayed")
	flag.IntVar(&opts.catalog, "catalog", 64, "distinct kernel-structure/size pairs in the request population")
	flag.Float64Var(&opts.zipfS, "zipf-s", 1.1, "Zipf popularity exponent over the catalog (must be >1; ~1 gives the classic 80/20 hot-key skew)")
	flag.StringVar(&opts.mix, "mix", "tune=0.7,rank=0.2,predict=0.1", "request mix as op=weight pairs over tune, rank, predict")
	flag.Int64Var(&opts.seed, "seed", 1, "PRNG seed; identical seeds replay identical request streams")
	flag.IntVar(&opts.maxAttempts, "max-attempts", 4, "client retry budget per logical request")
	flag.DurationVar(&opts.timeout, "timeout", 10*time.Second, "per-attempt client timeout")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Read())
		return
	}
	if opts.zipfS <= 1 {
		log.Fatalf("-zipf-s %v: Zipf exponent must be > 1", opts.zipfS)
	}
	if opts.rate <= 0 || opts.catalog <= 0 || opts.concurrency <= 0 {
		log.Fatal("-rate, -catalog and -concurrency must be positive")
	}
	if err := run(opts); err != nil {
		log.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Request population

// catalogEntry is one distinct kernel structure + problem size; the Zipf
// draw selects entries, so entry 0 is the hottest key in the stream.
type catalogEntry struct {
	kernel wire.Kernel
	size   string
	dims   int
}

// kernelNames3 and kernelNames2 are the Table III benchmark kernels by
// dimensionality; the catalog cycles through them at a spread of sizes so
// every entry is a distinct cache key on the server.
var (
	kernelNames3 = []string{"wave-1", "tricubic", "divergence", "gradient", "laplacian", "laplacian6"}
	kernelNames2 = []string{"blur", "edge", "game-of-life"}
)

func buildCatalog(n int) []catalogEntry {
	out := make([]catalogEntry, n)
	for i := range out {
		// Two 3-D entries for each 2-D one, roughly the Table III balance.
		if i%3 == 2 {
			name := kernelNames2[(i/3)%len(kernelNames2)]
			side := 256 + 32*(i%24)
			out[i] = catalogEntry{kernel: wire.Named(name), size: fmt.Sprintf("%dx%d", side, side), dims: 2}
		} else {
			name := kernelNames3[(i/3*2+i%3)%len(kernelNames3)]
			side := 48 + 8*(i%24)
			out[i] = catalogEntry{kernel: wire.Named(name), size: fmt.Sprintf("%dx%dx%d", side, side, side), dims: 3}
		}
	}
	return out
}

const (
	opTune = iota
	opRank
	opPredict
	numOps
)

var opNames = [numOps]string{"tune", "rank", "predict"}

// parseMix turns "tune=0.7,rank=0.2,predict=0.1" into cumulative
// thresholds for a uniform draw.
func parseMix(s string) ([numOps]float64, error) {
	var weights [numOps]float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return weights, fmt.Errorf("mix entry %q: want op=weight", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w < 0 {
			return weights, fmt.Errorf("mix entry %q: bad weight", part)
		}
		idx := -1
		for i, n := range opNames {
			if n == strings.TrimSpace(name) {
				idx = i
			}
		}
		if idx < 0 {
			return weights, fmt.Errorf("mix entry %q: unknown op (want tune, rank or predict)", part)
		}
		weights[idx] = w
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return weights, fmt.Errorf("mix %q has no positive weight", s)
	}
	cum := 0.0
	for i := range weights {
		cum += weights[i] / total
		weights[i] = cum
	}
	return weights, nil
}

// ---------------------------------------------------------------------------
// Load loop

// arrival is one scheduled request: when it was due, what to send.
type arrival struct {
	sched time.Time
	entry int
	op    int
	warm  bool
}

// tally accumulates worker outcomes; one mutex is plenty at generator rates.
type tally struct {
	mu        sync.Mutex
	latencies []time.Duration // successful post-warmup requests only
	completed int
	errs      int
	shed      int
	hits      int
	coalesced int
	errSample string
}

func run(opts options) error {
	mix, err := parseMix(opts.mix)
	if err != nil {
		return err
	}
	catalog := buildCatalog(opts.catalog)
	cl, err := client.New(client.Config{
		BaseURL:           opts.target,
		ClientID:          "stencil-load",
		MaxAttempts:       opts.maxAttempts,
		PerAttemptTimeout: opts.timeout,
		Seed:              opts.seed,
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(opts.seed))
	zipf := rand.NewZipf(rng, opts.zipfS, 1, uint64(opts.catalog-1))

	work := make(chan arrival, opts.concurrency)
	var t tally
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < opts.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range work {
				doOne(ctx, cl, catalog[a.entry], a, &t)
			}
		}()
	}

	// Open-loop dispatcher: arrivals fire on their schedule regardless of
	// how the service is doing. A full worker pool means the fleet cannot
	// absorb the offered rate — that is an overload drop to report, never
	// a reason to slow the schedule down.
	interval := time.Duration(float64(time.Second) / opts.rate)
	start := time.Now()
	warmupEnd := start.Add(opts.warmup)
	end := warmupEnd.Add(opts.duration)
	dropped := 0
	scheduled := 0
	for next := start; next.Before(end); next = next.Add(interval) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		a := arrival{
			sched: next,
			entry: int(zipf.Uint64()),
			op:    pickOp(mix, rng.Float64()),
			warm:  next.Before(warmupEnd),
		}
		scheduled++
		select {
		case work <- a:
		default:
			if !a.warm {
				dropped++
			}
		}
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(warmupEnd)
	if elapsed > opts.duration {
		elapsed = opts.duration // tail requests finish after the window
	}

	rep := buildReport(opts, &t, dropped, scheduled, elapsed, cl.Retries())
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
	if t.errSample != "" {
		log.Printf("sample error: %s", t.errSample)
	}
	if opts.out != "" {
		if err := mergeReport(opts.out, opts.label, rep); err != nil {
			return err
		}
		log.Printf("merged %q into %s", opts.label, opts.out)
	}
	return nil
}

func pickOp(mix [numOps]float64, u float64) int {
	for i, threshold := range mix {
		if u < threshold {
			return i
		}
	}
	return opTune
}

// doOne issues one request and charges its latency from the scheduled
// arrival — the coordinated-omission-aware clock.
func doOne(ctx context.Context, cl *client.Client, e catalogEntry, a arrival, t *tally) {
	var cache string
	var err error
	in := wire.Instance{Kernel: e.kernel, Size: e.size}
	switch a.op {
	case opTune:
		var r *client.Reply[wire.TuneResponse]
		r, err = cl.Tune(ctx, wire.TuneRequest{Instance: in})
		cache = r.Cache
	case opRank:
		var r *client.Reply[wire.RankResponse]
		r, err = cl.Rank(ctx, wire.RankRequest{Instance: in})
		cache = r.Cache
	case opPredict:
		vectors := []wire.Vector{
			{Bx: 16, By: 16, Bz: 4, U: 1, C: 1},
			{Bx: 32, By: 8, Bz: 2, U: 2, C: 2},
		}
		if e.dims == 2 {
			for i := range vectors {
				vectors[i].Bz = 0 // normalized to the required bz=1 server-side
			}
		}
		var r *client.Reply[wire.PredictResponse]
		r, err = cl.Predict(ctx, wire.PredictRequest{Instance: in, Vectors: vectors})
		cache = r.Cache
	}
	lat := time.Since(a.sched)
	t.mu.Lock()
	defer t.mu.Unlock()
	if a.warm {
		return
	}
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Retryable() {
			// Retries exhausted against deliberate backpressure: a shed,
			// not a failure — the admission control worked as designed.
			t.shed++
		} else {
			t.errs++
			if t.errSample == "" {
				t.errSample = err.Error()
			}
		}
		return
	}
	t.completed++
	t.latencies = append(t.latencies, lat)
	switch cache {
	case "hit":
		t.hits++
	case "coalesced":
		t.coalesced++
	}
}

// ---------------------------------------------------------------------------
// Reporting

// report is one run's entry in BENCH_load.json.
type report struct {
	Target        string  `json:"target"`
	TargetRateQPS float64 `json:"target_rate_qps"`
	Duration      string  `json:"duration"`
	Concurrency   int     `json:"concurrency"`
	Catalog       int     `json:"catalog"`
	ZipfS         float64 `json:"zipf_s"`
	Mix           string  `json:"mix"`

	Scheduled       int     `json:"scheduled"`
	Completed       int     `json:"completed"`
	Errors          int     `json:"errors"`
	Shed            int     `json:"shed"`
	DroppedOverload int     `json:"dropped_overload"`
	ClientRetries   int64   `json:"client_retries"`
	CacheHits       int     `json:"cache_hits"`
	Coalesced       int     `json:"coalesced"`
	SustainedQPS    float64 `json:"sustained_qps"`

	P50Micros  int64 `json:"p50_us"`
	P95Micros  int64 `json:"p95_us"`
	P99Micros  int64 `json:"p99_us"`
	P999Micros int64 `json:"p999_us"`
	MaxMicros  int64 `json:"max_us"`

	GoVersion     string `json:"go"`
	CPUs          int    `json:"cpus"`
	GeneratedUnix int64  `json:"generated_unix"`
}

func buildReport(opts options, t *tally, dropped, scheduled int, elapsed time.Duration, retries int64) report {
	rep := report{
		Target:          opts.target,
		TargetRateQPS:   opts.rate,
		Duration:        opts.duration.String(),
		Concurrency:     opts.concurrency,
		Catalog:         opts.catalog,
		ZipfS:           opts.zipfS,
		Mix:             opts.mix,
		Scheduled:       scheduled,
		Completed:       t.completed,
		Errors:          t.errs,
		Shed:            t.shed,
		DroppedOverload: dropped,
		ClientRetries:   retries,
		CacheHits:       t.hits,
		Coalesced:       t.coalesced,
		GoVersion:       runtime.Version(),
		CPUs:            runtime.NumCPU(),
		GeneratedUnix:   time.Now().Unix(),
	}
	if elapsed > 0 {
		rep.SustainedQPS = float64(t.completed) / elapsed.Seconds()
	}
	ls := append([]time.Duration(nil), t.latencies...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	if len(ls) > 0 {
		pct := func(p float64) int64 {
			idx := int(p * float64(len(ls)-1))
			return ls[idx].Microseconds()
		}
		rep.P50Micros = pct(0.50)
		rep.P95Micros = pct(0.95)
		rep.P99Micros = pct(0.99)
		rep.P999Micros = pct(0.999)
		rep.MaxMicros = ls[len(ls)-1].Microseconds()
	}
	return rep
}

// loadReport is the BENCH_load.json envelope: one entry per -label, merged
// across runs so the single-backend and fleet rows accumulate in one file.
type loadReport struct {
	Schema string `json:"schema"`
	// Note is free-form context about the generating environment (e.g. "1
	// shared CPU; see CI for the multi-core comparison"); merges keep it.
	Note    string            `json:"note,omitempty"`
	Entries map[string]report `json:"entries"`
}

func mergeReport(path, label string, rep report) error {
	doc := loadReport{Schema: "stencil-load/v1", Entries: map[string]report{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &doc); err != nil {
			return fmt.Errorf("existing %s is not a load report: %v", path, err)
		}
		if doc.Entries == nil {
			doc.Entries = map[string]report{}
		}
	}
	doc.Schema = "stencil-load/v1"
	doc.Entries[label] = rep
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
