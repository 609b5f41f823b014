// Command perfbench is the tuning service's benchmark. It trains the served
// model, starts a real stencil-serve child on it and drives one of three
// workloads over loopback HTTP with closed-loop callers (--trace 0), or
// replays the workload in-process with spans around each layer's public
// calls (--trace 1). The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// Run it from the repository root through run.sh, which builds this command
// and the server first:
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
//
// README.md in this directory explains the workloads and how to read a
// result.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverBin string
	work      string // per-run scratch: stores, server logs, traces, results
	nproc     int
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: hot, cold or measure")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; fixes the request sequence")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end run over HTTP; 1: traced in-process run reporting per-layer metrics")
	flag.StringVar(&o.serverBin, "server-bin", filepath.Join(".bench_build", "stencil-serve"), "stencil-serve binary")
	flag.StringVar(&o.work, "out", filepath.Join(".bench_build", "runs"), "directory for stores, server logs, traces and result files")
	flag.Parse()
	o.trace = traceFlag == 1
	o.nproc = runtime.NumCPU()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch o.workload {
	case "hot", "cold", "measure":
	default:
		return fmt.Errorf("--workload %q: want hot, cold or measure", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	o.work = filepath.Join(o.work, fmt.Sprintf("%s-%s-seed%d", o.workload, mode, o.seed))
	if err := os.RemoveAll(o.work); err != nil {
		return err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	prov, err := provenance(o)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", line)

	var (
		res    result
		report map[string]any
	)
	if o.trace {
		res, report, err = runTraced(o)
	} else {
		res, report, err = runEndToEnd(o)
	}
	if err != nil {
		return err
	}
	doc, _ := json.MarshalIndent(map[string]any{"provenance": prov, "result": res, "report": report}, "", "  ")
	if err := os.WriteFile(filepath.Join(o.work, "result.json"), doc, 0o644); err != nil {
		return err
	}
	printMetrics(res.Metrics)
	last, _ := json.Marshal(res)
	fmt.Println(string(last))
	if !res.Correct {
		return fmt.Errorf("output check failed: %d of %d ops failed", res.Failed, res.Attempted)
	}
	return pruneWork(o.work)
}

// pruneWork removes a passed run's model stores and server logs, keeping
// result.json and spans.jsonl. A hot run's access log alone is tens of
// megabytes; a failed run keeps everything for diagnosis.
func pruneWork(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name() == "result.json" || e.Name() == "spans.jsonl" {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// provenance records what produced a result: toolchain, machine, source and
// workload parameters.
func provenance(o options) (map[string]any, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return nil, fmt.Errorf("hashing the source tree (run from the repository root): %w", err)
	}
	return map[string]any{
		"go":            runtime.Version(),
		"nproc":         o.nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"commit":        buildinfo.Read().Commit,
		"source_sha256": digest,
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"params":        workloadParams(o.workload, o.nproc),
	}, nil
}

// sourceDigest hashes every Go source and go.mod under root, skipping hidden
// directories. It identifies the code when no commit is recorded (a checkout
// without version-control metadata).
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if len(files) == 0 {
		return "", errors.New("no Go sources found")
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// warmup is the untimed load a run sends before its timed phase.
const warmup = 2 * time.Second

// runEndToEnd is the untraced run: set-up, a warm-up, the timed closed-loop
// phase over HTTP, the output check and the quality scoring. Warm-up
// replies are checked like timed ones.
func runEndToEnd(o options) (result, map[string]any, error) {
	ctx := context.Background()
	callers := 1
	if o.workload == "hot" {
		callers = hotCallers(o.nproc)
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: callers,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()

	var cat []request
	if o.workload == "hot" {
		cat = hotCatalog(o.seed)
	}
	su, err := setUp(ctx, o, client, cat)
	if err != nil {
		return result{}, nil, err
	}
	srv := su.server
	defer srv.stop()
	tuner := core.New(su.trained.model)

	failed, firstErr := 0, ""
	primed := map[string][]byte{}
	if o.workload == "hot" {
		var sv []served
		for i, body := range su.primed {
			var tr tuneResponse
			if err := json.Unmarshal(body, &tr); err != nil {
				return result{}, nil, fmt.Errorf("decoding primed reply: %w", err)
			}
			sv = append(sv, served{req: cat[i], best: tr.Best})
			primed[cat[i].Key] = body
		}
		bad, first, err := verifyServed(tuner, sv)
		if err != nil {
			return result{}, nil, err
		}
		failed, firstErr = bad, first
	}

	seqs := make([]sequence, callers)
	for c := range seqs {
		seqs[c] = newSequence(o.workload, o.seed, c, cat)
	}
	url, check := srv.base+"/v1/tune", checkFor(o.workload, primed)
	// The warm-up lets the server's heap, connections and executor
	// workspaces reach their steady state, so the timed phase and its peak
	// RSS do not depend on what set-up left behind.
	warm := time.Now()
	warmResults := drive(ctx, client, url, seqs, warm, warm.Add(warmup), check)

	pid := srv.cmd.Process.Pid
	rssScope := "timed phase"
	if err := resetPeakRSS(pid); err != nil {
		rssScope = "process lifetime"
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return result{}, nil, err
	}
	self0, steal0 := selfCPU(), hostSteal()
	start := time.Now()
	results := drive(ctx, client, url, seqs, start, start.Add(time.Duration(o.seconds)*time.Second), check)
	wall := time.Since(start)
	self1, steal1 := selfCPU(), hostSteal()
	cpu1, err := procCPU(pid)
	if err != nil {
		return result{}, nil, err
	}
	rss, err := procPeakRSSMB(pid)
	if err != nil {
		return result{}, nil, err
	}
	if err := srv.stop(); err != nil {
		return result{}, nil, fmt.Errorf("server did not drain cleanly: %w", err)
	}

	ok := 0
	for _, r := range results {
		ok += r.ok
	}
	attempted := 0
	var sv []served
	for _, r := range append(warmResults, results...) {
		attempted += r.ok + r.failed
		failed += r.failed
		if firstErr == "" {
			firstErr = r.firstErr
		}
		sv = append(sv, r.served...)
	}
	bad, first, err := verifyServed(tuner, sv)
	if err != nil {
		return result{}, nil, err
	}
	failed += bad
	if firstErr == "" {
		firstErr = first
	}
	if attempted == 0 {
		return result{}, nil, errors.New("no request completed in the timed phase")
	}

	qual, err := scoreQuality(tuner, qualityInstances(o.workload, o.seed, cat))
	if err != nil {
		return result{}, nil, err
	}

	lat := merged(results, func(r *callerResult) []float64 { return r.latencies })
	rates := sliceRates(merged(results, func(r *callerResult) []float64 { return r.done }))
	p50, _ := percentile(lat, 0.50)
	p90, p90ok := percentile(lat, 0.90)
	if !p90ok {
		return result{}, nil, fmt.Errorf("%d samples leave fewer than %d beyond p90; lengthen --seconds", len(lat), minTail)
	}
	report := map[string]any{
		"samples":         len(lat),
		"error_frac":      float64(failed) / float64(attempted),
		"client.cpu_frac": (self1 - self0).Seconds() / wall.Seconds() / float64(o.nproc),
		"server.cpu_frac": (cpu1 - cpu0).Seconds() / wall.Seconds() / float64(o.nproc),
		"host.steal_frac": (steal1 - steal0).Seconds() / wall.Seconds() / float64(o.nproc),
		"setup_s_each":    seconds(su.times),
		"peak_rss_scope":  rssScope,
		"slice_rates":     rates,
	}
	for _, p := range []float64{0.99, 0.999} {
		if v, ok := percentile(lat, p); ok {
			report[fmt.Sprintf("p%g_ms", p*100)] = v
		}
	}
	if firstErr != "" {
		report["first_error"] = firstErr
	}
	fmt.Printf("report %s\n", mustJSON(report))

	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":          {median(seconds(su.times)), "s"},
			"ops_per_s":        {median(rates), "1/s"},
			"p50_ms":           {p50, "ms"},
			"p90_ms":           {p90, "ms"},
			"cpu_ms_per_op":    {float64(cpu1-cpu0) / 1e6 / float64(max(ok, 1)), "ms"},
			"peak_rss_mb":      {rss, "MiB"},
			"tau_mean":         {qual.tau, "tau"},
			"top1_oracle_frac": {qual.top1, "ratio"},
			"speedup_vs_ga":    {qual.speedupGA, "x"},
		},
	}
	return res, report, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}

// printMetrics prints one "name value unit" line per metric, sorted by name.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
