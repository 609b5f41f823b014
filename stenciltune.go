// Package stenciltune is a Go reproduction of "Autotuning Stencil
// Computations with Structural Ordinal Regression Learning" (Cosenza,
// Durillo, Ermon, Juurlink — IPDPS 2017).
//
// It provides an autotuner for stencil computations that learns to *rank*
// code variants instead of classifying them or regressing their runtime:
// training data is organized into partial rankings (one per stencil instance)
// and fitted with a pairwise ranking SVM. The trained model orders candidate
// tuning vectors — loop-blocking sizes, unroll factor and multithreading
// chunk size — for unseen stencils without executing them.
//
// # Quick start
//
//	model, _, err := stenciltune.Train(stenciltune.TrainOptions{TrainingPoints: 3840})
//	if err != nil { ... }
//	tuner := model.Tuner()
//	q := stenciltune.Instance{Kernel: stenciltune.Laplacian(), Size: stenciltune.Size3D(128, 128, 128)}
//	best, _, err := tuner.TunePredefined(q)
//
// Evaluation runs against either the deterministic performance simulator of
// the paper's Xeon E5-2680 v3 testbed (Simulate, the default — reproducible
// and fast) or real timed execution of the stencils by the built-in blocked
// multithreaded Go executor (Measure).
//
// # Batch evaluation and parallelism
//
// Every bulk consumer — search engines, training-set generation, hybrid
// tuning, model scoring — works through batch interfaces. BatchedEvaluator
// fans independent evaluations out to a bounded worker pool,
// MemoizedEvaluator caches (instance, tuning vector) runtimes across
// consumers, TrainOptions.Workers parallelizes training-set generation, and
// RunSearchBatched runs a search engine with per-generation batched
// evaluation. All of it is deterministic: results are committed in proposal
// order and RNG streams are derived per instance, so the same seed produces
// bit-identical results at any worker count.
package stenciltune

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/feature"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/search"
	"repro/internal/stencil"
	"repro/internal/store"
	"repro/internal/svmrank"
	"repro/internal/trainer"
	"repro/internal/tunespace"
)

// Re-exported model types. The aliases give external users names for the
// values the API exchanges.
type (
	// Kernel is the static stencil description k = (shape, buffers, dtype).
	Kernel = stencil.Kernel
	// DataType is the element type of a stencil's buffers. It is not just a
	// feature-vector bit: Measure-mode evaluation, benchmarking and the
	// serving measure path execute Float32 stencils in genuine single
	// precision (float32 workspaces and arithmetic).
	DataType = stencil.DataType
	// Size is a grid extent; use Size2D/Size3D to build one.
	Size = stencil.Size
	// Instance is a kernel paired with an input size — the unit the tuner
	// optimizes.
	Instance = stencil.Instance
	// TuningVector is t = (bx, by, bz, u, c, k); k is the temporal fusion
	// depth (0 or 1 = unfused).
	TuningVector = tunespace.Vector
	// Evaluator maps an execution to a runtime in seconds.
	Evaluator = dataset.Evaluator
	// BatchEvaluator additionally costs many tuning vectors of one instance
	// per call (possibly concurrently), in input order.
	BatchEvaluator = dataset.BatchEvaluator
	// SearchResult is the outcome of an iterative search baseline.
	SearchResult = search.Result
	// SearchEngine is an iterative-compilation search method.
	SearchEngine = search.Engine
	// BatchObjective is the batched evaluation hook of SearchEngine.SearchBatch.
	BatchObjective = search.BatchObjective
)

// Supported buffer element types (the two values of DataType).
const (
	Float32 = stencil.Float32
	Float64 = stencil.Float64
)

// Size constructors and benchmark kernels re-exported from the model layer.
var (
	Size2D = stencil.Size2D
	Size3D = stencil.Size3D

	Blur       = stencil.Blur
	Edge       = stencil.Edge
	GameOfLife = stencil.GameOfLife
	Wave       = stencil.Wave
	Tricubic   = stencil.Tricubic
	Divergence = stencil.Divergence
	Gradient   = stencil.Gradient
	Laplacian  = stencil.Laplacian
	Laplacian6 = stencil.Laplacian6

	// Benchmarks returns the 17 test benchmarks of Table III.
	Benchmarks = stencil.Benchmarks
	// KernelByName resolves a Table III kernel name.
	KernelByName = stencil.KernelByName
)

// EvaluateMode selects how stencil executions are costed.
type EvaluateMode int

const (
	// Simulate evaluates on the deterministic analytic model of the
	// paper's Xeon E5-2680 v3 (fast, reproducible; the default).
	Simulate EvaluateMode = iota
	// Measure executes the stencil for real with the built-in blocked
	// multithreaded executor and reports wall-clock time.
	Measure
)

// Simulator returns the deterministic Xeon E5-2680 v3 evaluator.
func Simulator() Evaluator { return perfmodel.New(machine.XeonE52680v3()) }

// measuredEvaluator adapts the real executor to the BatchEvaluator
// interface.
type measuredEvaluator struct {
	m *exec.Measurer
}

// Runtime implements Evaluator. Invalid configurations (which the tuner
// never generates) surface as +Inf rather than an error, so searches simply
// avoid them.
func (e measuredEvaluator) Runtime(q stencil.Instance, t tunespace.Vector) float64 {
	secs, err := e.m.Measure(q, t)
	if err != nil {
		return inf()
	}
	return secs
}

// RuntimeBatch implements BatchEvaluator. The batch serializes onto the
// measuring runner under one lock acquisition — interleaved wall-clock
// timings would corrupt each other, so timing fidelity wins over overlap.
// Invalid configurations report +Inf at their slot like Runtime does.
func (e measuredEvaluator) RuntimeBatch(q stencil.Instance, ts []tunespace.Vector) []float64 {
	out, _ := e.m.MeasureBatch(q, ts)
	return out
}

func inf() float64 { return math.Inf(1) }

// Close stops the persistent worker pool of the underlying executor. The
// evaluator may be reused afterwards.
func (e measuredEvaluator) Close() { e.m.Close() }

// Measured returns an evaluator that runs stencils for real and reports
// wall-clock seconds. Evaluations are orders of magnitude slower than
// Simulate; prefer it for final validation runs. Execution is precision-true:
// a kernel declaring Float32 is run on float32 buffers with float32
// arithmetic, so single-precision stencils observe their real (roughly
// doubled) effective memory bandwidth.
//
// The executor keeps a persistent worker pool and a cache of compiled
// execution plans, so repeated measurements of the same instance are
// allocation-free. Pass the evaluator to CloseEvaluator when discarding it
// before process exit.
func Measured() Evaluator { return measuredEvaluator{m: exec.NewMeasurer()} }

// CloseEvaluator releases resources held by evaluators that own persistent
// worker pools (those from Measured, including ones wrapped by
// BatchedEvaluator or MemoizedEvaluator); it is a no-op for any other
// evaluator.
func CloseEvaluator(e Evaluator) {
	if c, ok := e.(interface{ Close() }); ok {
		c.Close()
	}
}

// BatchedEvaluator wraps an evaluator so batches evaluate on up to workers
// goroutines. Workers follows the same convention as every workers knob in
// this API: 0 or 1 is sequential, negative selects GOMAXPROCS. The wrapped
// evaluator must be safe for concurrent use when more than one worker runs
// — Simulator and Measured both are (the measurer serializes internally to
// protect its timings). Results are always in input order. An evaluator
// that already batches (Measured, MemoizedEvaluator) is returned unchanged
// with its own scheduling policy, so to cache *and* fan out, wrap in this
// order: MemoizedEvaluator(BatchedEvaluator(Simulator(), -1)).
func BatchedEvaluator(e Evaluator, workers int) BatchEvaluator {
	return dataset.Batched(e, workers)
}

// MemoizedEvaluator wraps an evaluator with a concurrency-safe cache keyed
// by (instance, tuning vector), so repeated vectors — across search
// generations, engines sharing the evaluator, or ranking/validation passes
// — are never re-simulated or re-measured.
func MemoizedEvaluator(e Evaluator) BatchEvaluator {
	return dataset.Memoized(e)
}

// EvaluatorFor returns the evaluator for a mode.
func EvaluatorFor(mode EvaluateMode) Evaluator {
	if mode == Measure {
		return Measured()
	}
	return Simulator()
}

// TrainOptions configures Train.
type TrainOptions struct {
	// TrainingPoints is the training-set size (Table II uses 960…32000).
	// Default 3840.
	TrainingPoints int
	// Seed makes training reproducible. Default 1.
	Seed int64
	// Mode selects the evaluation substrate. Default Simulate.
	Mode EvaluateMode
	// C overrides the ranking SVM's slack cost per pair (default 3, the
	// calibrated equivalent of the paper's SVM-Rank -c 0.01, which
	// SVM-Rank divides by the query count; see the C-sensitivity ablation
	// BenchmarkAblationC in bench_test.go).
	C float64
	// Evaluator overrides Mode with a custom evaluator when non-nil.
	Evaluator Evaluator
	// Workers bounds concurrent training-set generation: 0 or 1 generates
	// sequentially, negative selects GOMAXPROCS. Any worker count produces
	// the identical training set (and therefore the identical model) for a
	// given seed; the evaluator must be safe for concurrent use when more
	// than one worker runs, which the built-in Simulate/Measure evaluators
	// are.
	Workers int
}

// TrainReport summarizes what training did.
type TrainReport struct {
	TrainingPoints int
	Pairs          int
	TrainTime      time.Duration
	// SimulatedCompileTime and SimulatedExecTime are the accounted costs a
	// real PATUS+gcc testbed would have spent preparing the training set
	// (the "TS Comp." and "TS Generation" columns of Table II).
	SimulatedCompileTime time.Duration
	SimulatedExecTime    time.Duration
}

// Model is a trained ordinal-regression ranking model, together with the
// training provenance the persistent store records (feature encoding,
// training options, dataset fingerprint, simulated machine).
type Model struct {
	inner *svmrank.Model
	meta  store.Meta
	mach  *machine.Machine
}

// Train builds a training set per Section V-B of the paper (60 generated
// stencil codes, 200 instances, random tuning vectors) and fits the ranking
// model.
func Train(opt TrainOptions) (*Model, TrainReport, error) {
	if opt.TrainingPoints == 0 {
		opt.TrainingPoints = 3840
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	eval := opt.Evaluator
	if eval == nil {
		eval = EvaluatorFor(opt.Mode)
		// This evaluator is ours: release its worker pool (Measure mode)
		// once the training set is built. Caller-supplied evaluators stay
		// untouched.
		defer CloseEvaluator(eval)
	}
	cfg := trainer.DefaultConfig(opt.TrainingPoints, opt.Seed)
	cfg.Dataset.Workers = opt.Workers
	if opt.C != 0 {
		cfg.SVM.C = opt.C
	}
	res, err := trainer.Train(eval, cfg)
	if err != nil {
		return nil, TrainReport{}, err
	}
	report := TrainReport{
		TrainingPoints:       res.Set.Len(),
		Pairs:                res.SVMStats.Pairs,
		TrainTime:            res.SVMStats.TrainTime,
		SimulatedCompileTime: res.Set.SimulatedCompileTime,
		SimulatedExecTime:    res.Set.SimulatedExecTime,
	}
	modeStr := "sim"
	var mach *machine.Machine
	switch {
	case opt.Evaluator != nil:
		modeStr = "custom"
	case opt.Mode == Measure:
		modeStr = "measure"
	default:
		mach = machine.XeonE52680v3()
	}
	meta := store.Meta{
		FeatureDim:         feature.Dim,
		FeatureNames:       feature.Names(),
		Normalization:      "real-valued components normalized to [0,1] (Sec. III-A); sizes and blocking log2-scaled over their parameter ranges",
		TrainingPoints:     res.Set.Len(),
		Seed:               opt.Seed,
		Mode:               modeStr,
		Sampling:           cfg.Dataset.Sampling.String(),
		C:                  cfg.SVM.C,
		Epochs:             cfg.SVM.Epochs,
		PairStrategy:       cfg.SVM.Pairs.Strategy.String(),
		PairWindow:         cfg.SVM.Pairs.Window,
		Pairs:              res.SVMStats.Pairs,
		DatasetFingerprint: res.Set.Fingerprint(),
	}
	return &Model{inner: res.Model, meta: meta, mach: mach}, report, nil
}

// SaveModel persists the model into the store directory dir under the given
// artifact name ("default" when empty): a content-hashed, atomically written
// set of JSON documents holding the weights, the trainer provenance and the
// simulated machine description. The resulting directory is what
// stencil-serve serves and what LoadModel / stencil-tune -model load back.
func SaveModel(dir, name string, m *Model) error {
	if name == "" {
		name = "default"
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	return st.Save(&store.Artifact{Name: name, Model: m.inner, Meta: m.meta, Machine: m.mach})
}

// LoadModel reads a model persisted by SaveModel from a store directory: an
// artifact directory, or a store root holding a "default" or single
// artifact.
func LoadModel(path string) (*Model, error) {
	a, err := store.LoadPath(path)
	if err != nil {
		return nil, err
	}
	return &Model{inner: a.Model, meta: a.Meta, mach: a.Machine}, nil
}

// Tuner returns the autotuner around this model.
func (m *Model) Tuner() *Tuner {
	return &Tuner{inner: core.New(m.inner)}
}

// Tuner ranks tuning vectors for stencil instances. Ranking never executes
// the stencil; only the optional hybrid mode spends measurements.
type Tuner struct {
	inner *core.Tuner
}

// TunePredefined ranks the paper's predefined power-of-two configuration set
// (1600 configurations for 2-D stencils, 8640 for 3-D) and returns the
// top-ranked vector and the ranking time.
func (t *Tuner) TunePredefined(q Instance) (TuningVector, time.Duration, error) {
	return t.inner.TunePredefined(q)
}

// HybridTune implements the paper's future-work coupling: rank the
// predefined set for free, then measure only the top-k candidates with the
// given evaluator and return the measured best. The k measurements are
// submitted as one batch: pass a BatchedEvaluator (or any BatchEvaluator)
// to overlap them; plain evaluators run sequentially. If no candidate
// evaluates to a finite time the call fails; with a Measured evaluator the
// error carries the executor's reason.
func (t *Tuner) HybridTune(q Instance, k int, eval Evaluator) (TuningVector, float64, error) {
	if eval == nil {
		eval = Simulator()
	}
	var sess *exec.Session
	if m, ok := eval.(measuredEvaluator); ok {
		sess = m.m.Session()
		eval = sess
	}
	cands := tunespace.NewSpace(q.Kernel.Dims()).Predefined()
	res, err := t.inner.HybridTopK(q, cands, k, core.BatchObjectiveFor(dataset.Batched(eval, 1), q))
	if err != nil {
		return TuningVector{}, 0, err
	}
	if math.IsInf(res.BestValue, 1) {
		err := errors.New("no finite runtime")
		if sess != nil && sess.Err() != nil {
			err = sess.Err()
		}
		return TuningVector{}, 0, fmt.Errorf("stenciltune: none of the top-%d candidates could be evaluated: %w", res.Evaluations, err)
	}
	return res.Best, res.BestValue, nil
}

// PredefinedCandidates returns the paper's predefined configuration set for
// a stencil dimensionality (2 or 3). The slice is the caller's own copy.
func PredefinedCandidates(dims int) []TuningVector {
	return slices.Clone(tunespace.NewSpace(dims).Predefined())
}

// SearchEngines returns the four iterative-compilation baselines of the
// paper's evaluation (generational GA, differential evolution, evolution
// strategy, steady-state GA).
func SearchEngines() []SearchEngine { return search.Engines() }

// RunSearchBatched tunes an instance with an iterative search baseline
// under an evaluation budget, mirroring the paper's 1024-evaluation runs.
// Each generation of the engine is costed as one batch on up to workers
// goroutines (0 or 1 = sequential, negative = GOMAXPROCS; when
// eval already implements BatchEvaluator its own scheduling policy wins and
// workers is ignored — see BatchedEvaluator for how to compose wrappers).
// Results are committed in proposal order, so for the deterministic
// simulator the SearchResult — Best, BestValue and the full History — is
// the same at every worker count under the same seed. The evaluator must be
// safe for concurrent use when more than one worker runs; Measure-mode
// evaluators serialize internally, so they gain timing fidelity but no
// overlap.
func RunSearchBatched(engine SearchEngine, q Instance, eval Evaluator, budget int, seed int64, workers int) (SearchResult, error) {
	return RunSearchBatchedContext(context.Background(), engine, q, eval, budget, seed, workers)
}

// RunSearchBatchedContext is RunSearchBatched with cooperative cancellation:
// when ctx is cancelled mid-search the evaluation fan-out stops doing work
// (remaining evaluations report +Inf and return immediately), so a serving
// request timeout bounds the search's cost. The engine still winds down its
// remaining budget over the now-free objective, and the returned result is
// only meaningful when ctx.Err() == nil — callers that time out should
// discard it. With context.Background() the result is bit-identical to
// RunSearchBatched.
func RunSearchBatchedContext(ctx context.Context, engine SearchEngine, q Instance, eval Evaluator, budget int, seed int64, workers int) (SearchResult, error) {
	if err := validateSearch(q, budget); err != nil {
		return SearchResult{}, err
	}
	if eval == nil {
		eval = Simulator()
	}
	space := tunespace.NewSpace(q.Kernel.Dims())
	obj := core.BatchObjectiveFor(dataset.BatchedContext(ctx, eval, workers), q)
	return engine.SearchBatch(space, obj, budget, seed), nil
}

func validateSearch(q Instance, budget int) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if budget <= 0 {
		return fmt.Errorf("stenciltune: budget %d must be positive", budget)
	}
	return nil
}
