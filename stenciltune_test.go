package stenciltune

import (
	"math"
	"strings"
	"testing"
)

func TestTrainAndTuneEndToEnd(t *testing.T) {
	model, report, err := Train(TrainOptions{TrainingPoints: 960, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.TrainingPoints != 960 || report.Pairs == 0 {
		t.Errorf("report incomplete: %+v", report)
	}
	if report.SimulatedCompileTime <= 0 || report.SimulatedExecTime <= 0 {
		t.Errorf("simulated costs missing: %+v", report)
	}
	tuner := model.Tuner()
	q := Instance{Kernel: Laplacian(), Size: Size3D(128, 128, 128)}
	best, elapsed, err := tuner.TunePredefined(q)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Error("no ranking time")
	}
	if err := best.Validate(3); err != nil {
		t.Errorf("best invalid: %v", err)
	}
}

func TestTrainDefaults(t *testing.T) {
	model, report, err := Train(TrainOptions{TrainingPoints: 480})
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || report.TrainingPoints != 480 {
		t.Fatalf("defaults broken: %+v", report)
	}
}

func TestSaveLoadModel(t *testing.T) {
	model, _, err := Train(TrainOptions{TrainingPoints: 480, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveModel(dir, "", model); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := Instance{Kernel: Blur(), Size: Size2D(1024, 768)}
	a, _, err := model.Tuner().TunePredefined(q)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := loaded.Tuner().TunePredefined(q)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("loaded model ranks differently")
	}
}

func TestSimulatorDeterministic(t *testing.T) {
	q := Instance{Kernel: Gradient(), Size: Size3D(128, 128, 128)}
	tv := TuningVector{Bx: 64, By: 16, Bz: 4, U: 2, C: 2}
	if Simulator().Runtime(q, tv) != Simulator().Runtime(q, tv) {
		t.Error("simulator not deterministic")
	}
}

func TestMeasuredEvaluatorRuns(t *testing.T) {
	eval := Measured()
	q := Instance{Kernel: Laplacian(), Size: Size3D(32, 32, 32)}
	r := eval.Runtime(q, TuningVector{Bx: 16, By: 16, Bz: 8, U: 2, C: 2})
	if r <= 0 || math.IsInf(r, 0) {
		t.Errorf("measured runtime %v", r)
	}
	// Invalid tuning folds to +Inf instead of erroring.
	bad := eval.Runtime(q, TuningVector{Bx: -3})
	if bad < 1e300 {
		t.Errorf("invalid tuning should evaluate to +Inf-like, got %v", bad)
	}
}

func TestEvaluatorFor(t *testing.T) {
	if EvaluatorFor(Simulate) == nil || EvaluatorFor(Measure) == nil {
		t.Error("nil evaluator")
	}
}

func TestPredefinedCandidatesSizes(t *testing.T) {
	if got := len(PredefinedCandidates(2)); got != 1600 {
		t.Errorf("2-D candidates = %d, want 1600", got)
	}
	if got := len(PredefinedCandidates(3)); got != 8640 {
		t.Errorf("3-D candidates = %d, want 8640", got)
	}
	// The internal set is shared; the public copy is the caller's to edit.
	mine := PredefinedCandidates(2)
	mine[0].Bx = 999
	if PredefinedCandidates(2)[0].Bx == 999 {
		t.Error("editing PredefinedCandidates' result changed the shared set")
	}
}

func TestSearchEnginesExposed(t *testing.T) {
	if len(SearchEngines()) != 4 {
		t.Errorf("engines = %d, want 4", len(SearchEngines()))
	}
}

func TestRunSearch(t *testing.T) {
	e := SearchEngines()[0]
	q := Instance{Kernel: Laplacian(), Size: Size3D(128, 128, 128)}
	res, err := RunSearchBatched(e, q, nil, 64, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 64 || res.BestValue <= 0 {
		t.Errorf("search result: %+v", res)
	}
	if _, err := RunSearchBatched(e, q, nil, 0, 1, 1); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := RunSearchBatched(e, Instance{}, nil, 10, 1, 1); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestHybridTune(t *testing.T) {
	model, _, err := Train(TrainOptions{TrainingPoints: 960, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tuner := model.Tuner()
	q := Instance{Kernel: Gradient(), Size: Size3D(128, 128, 128)}
	best, val, err := tuner.HybridTune(q, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if val <= 0 {
		t.Errorf("hybrid value %v", val)
	}
	if err := best.Validate(3); err != nil {
		t.Errorf("hybrid best invalid: %v", err)
	}
	// Hybrid must be at least as good as the pure top-1.
	top1, _, err := tuner.TunePredefined(q)
	if err != nil {
		t.Fatal(err)
	}
	if val > Simulator().Runtime(q, top1)+1e-12 {
		t.Error("hybrid worse than pure top-1")
	}

	// A 2-D kernel on a 3-D grid: the 2-D predefined set has bz=1, which
	// the executor cannot run there, so the instance is rejected before
	// anything is measured.
	eval := Measured()
	defer CloseEvaluator(eval)
	flat := Instance{Kernel: Edge(), Size: Size3D(16, 16, 16)}
	if _, v, err := tuner.HybridTune(flat, 2, eval); err == nil || !strings.Contains(err.Error(), "2-D kernel") {
		t.Errorf("unrunnable hybrid tune = %v, %v; want the dimensionality mismatch", v, err)
	}
	// When no candidate evaluates to a finite time the error says so
	// instead of returning an infinite best time.
	never := evalFunc(func(Instance, TuningVector) float64 { return math.Inf(1) })
	if _, v, err := tuner.HybridTune(q, 2, never); err == nil || !strings.Contains(err.Error(), "no finite runtime") {
		t.Errorf("hybrid tune without a finite runtime = %v, %v; want an error", v, err)
	}
}

func TestCustomEvaluatorOption(t *testing.T) {
	calls := 0
	eval := evalFunc(func(q Instance, tv TuningVector) float64 {
		calls++
		return Simulator().Runtime(q, tv)
	})
	_, _, err := Train(TrainOptions{TrainingPoints: 480, Evaluator: eval})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 480 {
		t.Errorf("custom evaluator called %d times, want 480", calls)
	}
}

type evalFunc func(Instance, TuningVector) float64

func (f evalFunc) Runtime(q Instance, t TuningVector) float64 { return f(q, t) }

func TestBenchmarksReExported(t *testing.T) {
	if len(Benchmarks()) != 17 {
		t.Error("benchmark re-export broken")
	}
	k, err := KernelByName("blur")
	if err != nil || k.Name != "blur" {
		t.Error("kernel lookup re-export broken")
	}
}
