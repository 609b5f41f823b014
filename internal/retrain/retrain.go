// Package retrain closes the learning loop of the serving system: a
// background worker tails the durable observation WAL, merges real measured
// runtimes into the synthetic training base, refits the ranking SVM, and
// promotes the candidate only when a canary gate says it ranks at least as
// well as the incumbent on held-out data.
//
// # Canary semantics
//
// The held-out set is drawn deterministically from the *trusted* synthetic
// base set (a hash-based fraction of its queries), never from observations:
// client-reported runtimes are exactly the data a canary must not trust, so
// they go entirely into training and the gate compares candidate and
// incumbent on the same untouched queries. The candidate is promoted when its
// mean held-out Kendall τ is no worse than the incumbent's minus Epsilon;
// otherwise the candidate artifact stays on disk next to a rejection report
// and the incumbent keeps serving. Promotion is crash-consistent: the
// candidate is fully saved first, then the store's current.json pointer flips
// atomically — a crash anywhere in between leaves the incumbent serving.
package retrain

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/store"
	"repro/internal/svmrank"
	"repro/internal/trainer"
	"repro/internal/wal"
)

// Config wires a retrain worker.
type Config struct {
	// WALDir is the observation log directory the worker tails.
	WALDir string
	// Store holds the incumbent and receives candidate artifacts.
	Store *store.Store
	// Prefix names candidates "<Prefix>-v<N>" (default "retrained").
	Prefix string
	// Interval is the schedule trigger: retrain at most this often when new
	// observations exist. 0 disables the timer (count trigger still fires).
	Interval time.Duration
	// MinRecords is the record-count trigger: retrain as soon as this many
	// new observations accumulated since the last attempt (default 64).
	MinRecords int
	// PollInterval is how often the count trigger re-checks the WAL
	// (default 5s; tests shrink it).
	PollInterval time.Duration
	// HoldoutFraction of the synthetic base queries is held out for the
	// canary gate, excluded from candidate training (default 0.2).
	HoldoutFraction float64
	// Epsilon is the canary tolerance: promote when the candidate's mean
	// held-out τ >= incumbent's − Epsilon (default 0.02).
	Epsilon float64
	// BasePoints sizes the synthetic base training set (default 384).
	BasePoints int
	// Seed drives base-set generation and SVM fitting, making retrains
	// reproducible (default 1).
	Seed int64
	// Workers bounds base-set generation concurrency (0/1 sequential).
	Workers int
	// Machine is the simulated substrate for the base set (default the
	// paper's Xeon E5-2680 v3).
	Machine *machine.Machine
	// OnPromote, when set, runs after a successful promotion — the server
	// hooks its registry hot-swap here.
	OnPromote func(name string)
	// Logger receives worker progress lines (nil discards them).
	Logger *obs.Logger
	// Registry, when non-nil, receives the worker's lifecycle metrics:
	// stencilserve_retrain_{cycles,promotions,rejections,failures}_total and
	// the candidate/incumbent canary-τ gauges. nil disables instrumentation.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Prefix == "" {
		c.Prefix = "retrained"
	}
	if c.MinRecords <= 0 {
		c.MinRecords = 64
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 5 * time.Second
	}
	if c.HoldoutFraction <= 0 || c.HoldoutFraction >= 1 {
		c.HoldoutFraction = 0.2
	}
	if c.Epsilon < 0 {
		c.Epsilon = 0
	} else if c.Epsilon == 0 {
		c.Epsilon = 0.02
	}
	if c.BasePoints <= 0 {
		c.BasePoints = 384
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Machine == nil {
		c.Machine = machine.XeonE52680v3()
	}
	return c
}

// Outcome reports one retrain attempt.
type Outcome struct {
	// Candidate is the saved artifact name ("" when no attempt ran).
	Candidate string `json:"candidate,omitempty"`
	// Promoted says whether the canary gate passed and current.json flipped.
	Promoted bool `json:"promoted"`
	// CandidateTau and IncumbentTau are mean Kendall τ on the held-out set.
	CandidateTau float64 `json:"candidate_tau"`
	IncumbentTau float64 `json:"incumbent_tau"`
	// Incumbent is the model the candidate was gated against ("" if none).
	Incumbent string `json:"incumbent,omitempty"`
	// Records is how many valid WAL observations entered training.
	Records int `json:"records"`
	// SkippedRecords counts observations rejected by validation.
	SkippedRecords int `json:"skipped_records,omitempty"`
	// Reason explains the decision: "canary-pass", "canary-fail",
	// "first-promotion".
	Reason string `json:"reason"`
	// Epsilon echoes the gate tolerance the decision used.
	Epsilon float64 `json:"epsilon"`
	// UnixNano stamps the attempt.
	UnixNano int64 `json:"unix_nano,omitempty"`
}

// Worker is the background retrain loop. Create with New, start Run in a
// goroutine, Stop to shut down. RetrainOnce is the synchronous core, also
// used directly by tests and by one-shot CLI invocations.
type Worker struct {
	cfg Config

	baseOnce sync.Once
	baseErr  error
	train    *svmrank.Dataset // synthetic base minus holdout
	holdout  *svmrank.Dataset // canary set

	m workerMetrics

	mu        sync.Mutex
	lastCount int64

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// testHookBeforePromote, when set, runs after the candidate artifact is
	// saved and before the current.json pointer flips — the crash-injection
	// test panics here.
	testHookBeforePromote func()
}

// New validates the configuration and returns a stopped worker.
func New(cfg Config) (*Worker, error) {
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("retrain: no WAL directory")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("retrain: no store")
	}
	w := &Worker{
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if reg := cfg.Registry; reg != nil {
		w.m = workerMetrics{
			cycles: reg.Counter("stencilserve_retrain_cycles_total",
				"Retrain attempts started."),
			promotions: reg.Counter("stencilserve_retrain_promotions_total",
				"Retrain candidates promoted by the canary gate."),
			rejections: reg.Counter("stencilserve_retrain_rejections_total",
				"Retrain candidates rejected by the canary gate."),
			failures: reg.Counter("stencilserve_retrain_failures_total",
				"Retrain attempts that errored before a gate decision."),
			candidateTau: reg.Gauge("stencilserve_retrain_candidate_tau",
				"Held-out Kendall tau of the most recent retrain candidate."),
			incumbentTau: reg.Gauge("stencilserve_retrain_incumbent_tau",
				"Held-out Kendall tau of the incumbent at the most recent gate."),
		}
	}
	return w, nil
}

// workerMetrics are the worker's obs handles; all nil (no-op) without a
// configured Registry.
type workerMetrics struct {
	cycles, promotions, rejections, failures *obs.Counter
	candidateTau, incumbentTau               *obs.Gauge
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logger != nil {
		w.cfg.Logger.Printf(format, args...)
	}
}

// Run drives the triggers until Stop: the count trigger fires as soon as
// MinRecords new observations accumulate; the schedule trigger retrains on
// Interval whenever at least one new observation exists.
func (w *Worker) Run() {
	defer close(w.done)
	var schedule <-chan time.Time
	if w.cfg.Interval > 0 {
		t := time.NewTicker(w.cfg.Interval)
		defer t.Stop()
		schedule = t.C
	}
	poll := time.NewTicker(w.cfg.PollInterval)
	defer poll.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-schedule:
			w.maybeRetrain(true)
		case <-poll.C:
			w.maybeRetrain(false)
		}
	}
}

// Stop shuts the loop down and waits for any in-flight retrain to finish.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

func (w *Worker) maybeRetrain(scheduled bool) {
	n, err := wal.CountRecords(w.cfg.WALDir)
	if err != nil {
		w.logf("retrain: counting WAL records: %v", err)
		return
	}
	w.mu.Lock()
	fresh := n - w.lastCount
	w.mu.Unlock()
	if fresh <= 0 || (!scheduled && fresh < int64(w.cfg.MinRecords)) {
		return
	}
	out, err := w.RetrainOnce()
	if err != nil {
		w.logf("retrain: attempt failed: %v", err)
		return
	}
	w.mu.Lock()
	w.lastCount = n
	w.mu.Unlock()
	w.logf("retrain: candidate %s τ=%.4f incumbent %s τ=%.4f records=%d promoted=%t (%s)",
		out.Candidate, out.CandidateTau, out.Incumbent, out.IncumbentTau,
		out.Records, out.Promoted, out.Reason)
}

// base lazily generates the synthetic base set on the simulator and splits it
// into training and canary-holdout halves by a deterministic query hash. The
// split depends only on query names, so every retrain gates on the same
// holdout and candidate/incumbent τ are comparable across attempts.
func (w *Worker) base() (*svmrank.Dataset, *svmrank.Dataset, error) {
	w.baseOnce.Do(func() {
		set, err := dataset.Generate(perfmodel.New(w.cfg.Machine), dataset.Options{
			TargetPoints: w.cfg.BasePoints,
			Seed:         w.cfg.Seed,
			Workers:      w.cfg.Workers,
		})
		if err != nil {
			w.baseErr = fmt.Errorf("retrain: generating base set: %w", err)
			return
		}
		w.train, w.holdout = &svmrank.Dataset{}, &svmrank.Dataset{}
		for _, e := range set.Data.Examples {
			if holdoutQuery(e.Query, w.cfg.HoldoutFraction) {
				w.holdout.Add(e)
			} else {
				w.train.Add(e)
			}
		}
		if w.holdout.Len() < 2 || w.train.Len() < 2 {
			w.baseErr = fmt.Errorf("retrain: degenerate holdout split (%d train, %d holdout)",
				w.train.Len(), w.holdout.Len())
		}
	})
	return w.train, w.holdout, w.baseErr
}

func holdoutQuery(q string, frac float64) bool {
	h := fnv.New32a()
	h.Write([]byte(q))
	return float64(h.Sum32()%1000) < frac*1000
}

// RetrainOnce reads the WAL, fits a candidate on base-train + observations,
// gates it on the holdout against the incumbent, saves it either way, and
// promotes on a pass. It is safe to call concurrently with serving; only one
// RetrainOnce should run at a time (Run serializes its own calls).
func (w *Worker) RetrainOnce() (*Outcome, error) {
	w.m.cycles.Inc()
	out, err := w.retrainOnce()
	if err != nil {
		w.m.failures.Inc()
		return nil, err
	}
	w.m.candidateTau.Set(out.CandidateTau)
	w.m.incumbentTau.Set(out.IncumbentTau)
	if out.Promoted {
		w.m.promotions.Inc()
	} else {
		w.m.rejections.Inc()
	}
	return out, nil
}

func (w *Worker) retrainOnce() (*Outcome, error) {
	baseTrain, holdout, err := w.base()
	if err != nil {
		return nil, err
	}
	recs, rep, err := wal.ReadAll(w.cfg.WALDir)
	if err != nil {
		return nil, fmt.Errorf("retrain: reading WAL: %w", err)
	}
	if !rep.Clean() {
		w.logf("retrain: WAL recovery report %+v", rep)
	}

	out := &Outcome{Epsilon: w.cfg.Epsilon, UnixNano: time.Now().UnixNano()}
	data := &svmrank.Dataset{}
	for _, e := range baseTrain.Examples {
		data.Add(e)
	}
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			out.SkippedRecords++
			continue
		}
		q, err := r.Instance()
		if err != nil {
			out.SkippedRecords++
			continue
		}
		data.Add(svmrank.Example{
			Query: obsQuery(r, q),
			X:     feature.NewEncoder().Encode(q, r.Tuning()),
			Y:     r.RuntimeSeconds,
		})
		out.Records++
	}
	if out.Records == 0 {
		return nil, fmt.Errorf("retrain: no valid observations in %s", w.cfg.WALDir)
	}

	cfg := trainer.DefaultConfig(w.cfg.BasePoints, w.cfg.Seed)
	model, stats, err := svmrank.Train(data, cfg.SVM)
	if err != nil {
		return nil, fmt.Errorf("retrain: fitting candidate: %w", err)
	}
	out.CandidateTau = meanTau(trainer.EvaluateTauData(model, holdout))

	// Incumbent: the store's promotion pointer, falling back to "default".
	incumbent, incumbentModel := w.incumbent()
	out.Incumbent = incumbent
	gatePassed := true
	out.Reason = "first-promotion"
	if incumbentModel != nil {
		out.IncumbentTau = meanTau(trainer.EvaluateTauData(incumbentModel, holdout))
		gatePassed = out.CandidateTau >= out.IncumbentTau-w.cfg.Epsilon
		if gatePassed {
			out.Reason = "canary-pass"
		} else {
			out.Reason = "canary-fail"
		}
	}

	// Save the candidate either way: a rejected candidate plus its report is
	// the audit trail of why serving did not change.
	name := w.nextName()
	out.Candidate = name
	art := &store.Artifact{
		Name:  name,
		Model: model,
		Meta: store.Meta{
			FeatureDim:     len(model.W),
			FeatureNames:   feature.Names(),
			TrainingPoints: data.Len(),
			Seed:           w.cfg.Seed,
			Mode:           "retrain",
			C:              cfg.SVM.C,
			Epochs:         cfg.SVM.Epochs,
			PairStrategy:   cfg.SVM.Pairs.Strategy.String(),
			PairWindow:     cfg.SVM.Pairs.Window,
			Pairs:          stats.Pairs,
		},
		Machine: w.cfg.Machine,
	}
	if err := w.cfg.Store.Save(art); err != nil {
		return nil, fmt.Errorf("retrain: saving candidate: %w", err)
	}

	if !gatePassed {
		out.Promoted = false
		w.writeReport(name, out)
		return out, nil
	}
	if w.testHookBeforePromote != nil {
		w.testHookBeforePromote()
	}
	if err := w.cfg.Store.SetCurrent(name, store.Promotion{
		Prev:         incumbent,
		Tau:          out.CandidateTau,
		IncumbentTau: out.IncumbentTau,
		Records:      out.Records,
		Reason:       out.Reason,
		UnixNano:     out.UnixNano,
	}); err != nil {
		return nil, fmt.Errorf("retrain: promoting %s: %w", name, err)
	}
	out.Promoted = true
	if w.cfg.OnPromote != nil {
		w.cfg.OnPromote(name)
	}
	return out, nil
}

// incumbent resolves the model the canary gates against.
func (w *Worker) incumbent() (string, *svmrank.Model) {
	name, _, err := w.cfg.Store.Current()
	if err != nil || name == "" {
		name = "default"
	}
	art, err := w.cfg.Store.Load(name)
	if err != nil {
		return "", nil
	}
	return name, art.Model
}

// nextName picks "<prefix>-v<N>" with N one past the highest existing
// candidate, so rejected candidates never get overwritten.
func (w *Worker) nextName() string {
	maxN := 0
	if infos, err := w.cfg.Store.List(); err == nil {
		for _, in := range infos {
			rest, ok := strings.CutPrefix(in.Name, w.cfg.Prefix+"-v")
			if !ok {
				continue
			}
			if n, err := strconv.Atoi(rest); err == nil && n > maxN {
				maxN = n
			}
		}
	}
	return fmt.Sprintf("%s-v%d", w.cfg.Prefix, maxN+1)
}

// writeReport drops rejection.json next to the candidate's documents. The
// file is intentionally outside the manifest: Load ignores it, so the
// artifact stays loadable for post-mortem inspection.
func (w *Worker) writeReport(name string, out *Outcome) {
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return
	}
	path := filepath.Join(w.cfg.Store.Dir(), name, "rejection.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		w.logf("retrain: writing %s: %v", path, err)
	}
}

func obsQuery(r wal.Record, q interface{ ID() string }) string {
	fp := r.Fingerprint
	if len(fp) > 12 {
		fp = fp[:12]
	}
	if fp == "" {
		fp = "anon"
	}
	mach := r.Machine
	if mach == "" {
		mach = "unknown"
	}
	return fmt.Sprintf("obs/%s/%s@%s", fp, q.ID(), mach)
}

func meanTau(qs []trainer.QueryTau) float64 {
	vals := trainer.TauValues(qs)
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
