package core

import (
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
	"repro/internal/svmrank"
	"repro/internal/tunespace"
)

var (
	sharedEval  dataset.Evaluator
	sharedTuner *Tuner
)

// trainOnce trains a single shared model for all tests in this package.
func trainOnce(t *testing.T) (dataset.Evaluator, *Tuner) {
	t.Helper()
	if sharedTuner != nil {
		return sharedEval, sharedTuner
	}
	eval := perfmodel.New(machine.XeonE52680v3())
	set, err := dataset.Generate(eval, dataset.Options{TargetPoints: 3840, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// trainer.DefaultConfig(3840, 1)'s SVM options; trainer imports core,
	// so this package's tests cannot call it.
	model, _, err := svmrank.Train(set.Data, svmrank.Options{
		C:      3,
		Epochs: 60,
		Seed:   1,
		Pairs:  svmrank.PairOptions{Strategy: svmrank.AdjacentPairs, Window: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	sharedEval = eval
	sharedTuner = New(model)
	return sharedEval, sharedTuner
}

func lap128() stencil.Instance {
	return stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(128, 128, 128)}
}

func TestRankErrors(t *testing.T) {
	_, tuner := trainOnce(t)
	q := lap128()
	if _, _, err := tuner.Rank(q, nil); err == nil {
		t.Error("empty candidates accepted")
	}
	bad := stencil.Instance{Kernel: nil}
	if _, _, err := tuner.Rank(bad, []tunespace.Vector{{Bx: 8, By: 8, Bz: 8, U: 0, C: 1}}); err == nil {
		t.Error("invalid instance accepted")
	}
	empty := &Tuner{}
	if _, _, err := empty.Rank(q, []tunespace.Vector{{Bx: 8, By: 8, Bz: 8, U: 0, C: 1}}); err == nil {
		t.Error("model-less tuner accepted")
	}
}

func TestRankReturnsPermutation(t *testing.T) {
	_, tuner := trainOnce(t)
	q := lap128()
	cands := tunespace.NewSpace(3).Predefined()[:200]
	order, _, err := tuner.Rank(q, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(cands) {
		t.Fatalf("order length %d != %d", len(order), len(cands))
	}
	seen := make([]bool, len(cands))
	for _, o := range order {
		if o < 0 || o >= len(cands) || seen[o] {
			t.Fatal("not a permutation")
		}
		seen[o] = true
	}
}

func TestBestBeatsMedianOfPredefinedSet(t *testing.T) {
	// The standalone tuner's top-1 must be much better than a random pick:
	// check it beats the median runtime of the candidate set on every
	// Table III benchmark.
	eval, tuner := trainOnce(t)
	for _, q := range stencil.Benchmarks() {
		cands := tunespace.NewSpace(q.Kernel.Dims()).Predefined()
		best, err := tuner.Best(q, cands)
		if err != nil {
			t.Fatalf("%s: %v", q.ID(), err)
		}
		chosen := eval.Runtime(q, best)
		runtimes := make([]float64, 0, len(cands))
		for _, v := range cands {
			runtimes = append(runtimes, eval.Runtime(q, v))
		}
		slices.Sort(runtimes)
		if median := runtimes[len(runtimes)/2]; chosen > median {
			t.Errorf("%s: top-1 runtime %.5f worse than candidate median %.5f", q.ID(), chosen, median)
		}
	}
}

func TestRankQualityDecentAcrossBenchmarks(t *testing.T) {
	// Fig. 4's shape: ordinal regression top-1 lands near the best of the
	// predefined set on most benchmarks. We require ≥50% of oracle on
	// average and ≥25% in the worst case.
	eval, tuner := trainOnce(t)
	var sum float64
	worst := 1.0
	worstID := ""
	for _, q := range stencil.Benchmarks() {
		cands := tunespace.NewSpace(q.Kernel.Dims()).Predefined()
		chosen, err := tuner.Best(q, cands)
		if err != nil {
			t.Fatalf("%s: %v", q.ID(), err)
		}
		// The fraction of the oracle's performance the top-1 achieves.
		_, oracle := OracleBest(eval, q, cands)
		quality := oracle / eval.Runtime(q, chosen)
		t.Logf("%-26s quality=%.2f", q.ID(), quality)
		sum += quality
		if quality < worst {
			worst, worstID = quality, q.ID()
		}
	}
	avg := sum / float64(len(stencil.Benchmarks()))
	t.Logf("avg=%.2f worst=%.2f (%s)", avg, worst, worstID)
	if avg < 0.5 {
		t.Errorf("average rank quality %.2f, want ≥ 0.5", avg)
	}
	if worst < 0.25 {
		t.Errorf("worst rank quality %.2f (%s), want ≥ 0.25", worst, worstID)
	}
}

func TestTunePredefined(t *testing.T) {
	_, tuner := trainOnce(t)
	q := lap128()
	best, elapsed, err := tuner.TunePredefined(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Validate(3); err != nil {
		t.Errorf("chosen vector invalid: %v", err)
	}
	if elapsed <= 0 {
		t.Error("elapsed not measured")
	}
	if _, _, err := tuner.TunePredefined(stencil.Instance{}); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestHybridTopK(t *testing.T) {
	eval, tuner := trainOnce(t)
	q := lap128()
	cands := tunespace.NewSpace(3).Predefined()
	obj := ObjectiveFor(eval, q)

	res, err := tuner.HybridTopK(q, cands, 16, obj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 16 {
		t.Errorf("evaluations = %d, want 16", res.Evaluations)
	}
	if res.RankedFrom != len(cands) {
		t.Errorf("RankedFrom = %d", res.RankedFrom)
	}
	// Hybrid with 16 measurements should beat the pure top-1.
	top1, err := tuner.Best(q, cands)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue > eval.Runtime(q, top1) {
		t.Error("hybrid top-16 worse than pure top-1 (it measures a superset)")
	}
	if _, err := tuner.HybridTopK(q, cands, 0, obj); err == nil {
		t.Error("k=0 accepted")
	}
	// k larger than the candidate set clamps.
	small := cands[:3]
	res, err = tuner.HybridTopK(q, small, 10, obj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 3 {
		t.Errorf("clamped evaluations = %d, want 3", res.Evaluations)
	}
}

func TestOracleBestIsMinimum(t *testing.T) {
	eval, _ := trainOnce(t)
	q := lap128()
	cands := tunespace.NewSpace(3).Predefined()[:300]
	v, r := OracleBest(eval, q, cands)
	for _, c := range cands {
		if eval.Runtime(q, c) < r {
			t.Fatalf("oracle missed a better candidate")
		}
	}
	if err := v.Validate(3); err != nil {
		t.Errorf("oracle vector invalid: %v", err)
	}
}

func TestTopOfRanking(t *testing.T) {
	_, tuner := trainOnce(t)
	q := lap128()
	cands := tunespace.NewSpace(3).Predefined()[:50]
	sorted, err := tuner.TopOfRanking(q, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted) != len(cands) {
		t.Fatalf("length %d", len(sorted))
	}
	best, err := tuner.Best(q, cands)
	if err != nil {
		t.Fatal(err)
	}
	if sorted[0] != best {
		t.Error("TopOfRanking[0] != Best")
	}
}

func TestNewUsesDefaultEncoder(t *testing.T) {
	m := &svmrank.Model{W: make([]float64, 1)}
	tuner := New(m)
	if tuner.Encoder == nil {
		t.Fatal("nil encoder")
	}
}

// TestBestMatchesRankHead guards the argmax fast path against the sorted
// ranking: both must pick the same winner, ties included.
func TestBestMatchesRankHead(t *testing.T) {
	_, tuner := trainOnce(t)
	q := lap128()
	cands := tunespace.NewSpace(3).Predefined()
	order, _, err := tuner.Rank(q, cands)
	if err != nil {
		t.Fatal(err)
	}
	best, err := tuner.Best(q, cands)
	if err != nil {
		t.Fatal(err)
	}
	if best != cands[order[0]] {
		t.Errorf("Best = %v, Rank head = %v", best, cands[order[0]])
	}
}
