package trainer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/ranking"
)

func evaluator() dataset.Evaluator { return perfmodel.New(machine.XeonE52680v3()) }

func TestTrainPipelineEndToEnd(t *testing.T) {
	res, err := Train(evaluator(), DefaultConfig(960, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 960 {
		t.Errorf("set size = %d", res.Set.Len())
	}
	if res.Model == nil || len(res.Model.W) == 0 {
		t.Fatal("no model")
	}
	if res.SVMStats.Pairs == 0 {
		t.Error("no pairs trained")
	}
}

func TestTrainPropagatesErrors(t *testing.T) {
	if _, err := Train(evaluator(), Config{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := DefaultConfig(960, 1)
	cfg.SVM.C = -1
	if _, err := Train(evaluator(), cfg); err == nil {
		t.Error("negative C accepted")
	}
}

func TestEvaluateTauPositiveOnTrainingSet(t *testing.T) {
	// The core scientific check: the fitted model must rank the training
	// set far better than chance.
	res, err := Train(evaluator(), DefaultConfig(1920, 2))
	if err != nil {
		t.Fatal(err)
	}
	taus := EvaluateTau(res.Model, res.Set)
	if len(taus) == 0 {
		t.Fatal("no tau values")
	}
	s := ranking.Summarize(TauValues(taus))
	t.Logf("tau: median=%.3f mean=%.3f q1=%.3f q3=%.3f n=%d", s.Median, s.Mean, s.Q1, s.Q3, s.N)
	if s.Median < 0.3 {
		t.Errorf("median training τ = %.3f, want ≥ 0.3 (model failed to learn)", s.Median)
	}
	for _, q := range taus {
		if q.Tau < -1 || q.Tau > 1 {
			t.Fatalf("%s: τ = %v out of range", q.Query, q.Tau)
		}
		if q.Size < 2 {
			t.Fatalf("%s: degenerate group of size %d survived", q.Query, q.Size)
		}
	}
}

func TestTauImprovesWithTrainingSize(t *testing.T) {
	// Fig. 7's headline: larger training sets stabilize and improve τ.
	// Comparing τ on each model's own training set is misleading (small
	// sets have tiny groups with upward-noisy τ), so both models are
	// evaluated on the same fixed held-out set.
	holdout, err := dataset.Generate(evaluator(), dataset.Options{TargetPoints: 6720, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Train(evaluator(), DefaultConfig(960, 3))
	if err != nil {
		t.Fatal(err)
	}
	large, err := Train(evaluator(), DefaultConfig(6720, 3))
	if err != nil {
		t.Fatal(err)
	}
	ts := ranking.Summarize(TauValues(EvaluateTau(small.Model, holdout)))
	tl := ranking.Summarize(TauValues(EvaluateTau(large.Model, holdout)))
	t.Logf("960: median=%.3f IQR=%.3f | 6720: median=%.3f IQR=%.3f",
		ts.Median, ts.IQR, tl.Median, tl.IQR)
	// The paper's claim (Sec. VI-B): the distribution "slightly improves
	// on average, but consistently improves in variance".
	if tl.Median < ts.Median {
		t.Errorf("held-out median τ degraded with more data: %.3f -> %.3f", ts.Median, tl.Median)
	}
	if tl.IQR > ts.IQR+0.05 {
		t.Errorf("held-out τ IQR grew with more data: %.3f -> %.3f", ts.IQR, tl.IQR)
	}
}

func TestMeasurePhases(t *testing.T) {
	rows, err := MeasurePhases(evaluator(), []int{960, 1920}, 1000, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].TSSize != 960 || rows[1].TSSize != 1920 {
		t.Errorf("sizes wrong: %+v", rows)
	}
	for _, r := range rows {
		if r.TSCompile <= 0 || r.TSGeneration <= 0 || r.Training <= 0 || r.Regression <= 0 {
			t.Errorf("unpopulated phase row: %+v", r)
		}
	}
	// Bigger set costs more simulated generation time.
	if rows[1].TSGeneration <= rows[0].TSGeneration {
		t.Errorf("generation time should grow with TS size: %v vs %v",
			rows[0].TSGeneration, rows[1].TSGeneration)
	}
}

func TestMeasurePhasesPropagatesError(t *testing.T) {
	if _, err := MeasurePhases(evaluator(), []int{-1}, 100, 1, 0); err == nil {
		t.Error("invalid size accepted")
	}
}

func TestTable2Sizes(t *testing.T) {
	sizes := Table2Sizes()
	if len(sizes) != 12 {
		t.Fatalf("got %d sizes, want 12 (Table II rows)", len(sizes))
	}
	if sizes[0] != 960 || sizes[len(sizes)-1] != 32000 {
		t.Errorf("endpoints wrong: %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Errorf("sizes not increasing at %d", i)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(960, 1)
	if cfg.SVM.C != 3 {
		t.Errorf("C = %v, want 3 (calibrated equivalent of the paper's 0.01)", cfg.SVM.C)
	}
	if cfg.Dataset.TargetPoints != 960 {
		t.Errorf("target = %d", cfg.Dataset.TargetPoints)
	}
}

// TestDefaultConfigWeightsPinned pins the exact weights the default pipeline
// trains: the sha256 of W's float64 bits, little-endian, in index order. The
// digests were taken from the solver that ran on the full sparse vectors,
// before training moved onto the packed live components, so they hold the
// packed solver to the same bits.
func TestDefaultConfigWeightsPinned(t *testing.T) {
	for _, c := range []struct {
		points int
		sha    string
	}{
		{960, "9d1542aa4662b6067951d7b66d29ba4763b3d5e2d22600d0da60232215fd269c"},
		{3840, "c883e838f21b8273046b67d16044627276c4bd8db693ebb511f98864e93f22aa"},
	} {
		res, err := Train(evaluator(), DefaultConfig(c.points, 1))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, v := range res.Model.W {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.sha {
			t.Errorf("DefaultConfig(%d, 1): sha256(W) = %s, want %s", c.points, got, c.sha)
		}
	}
}

func TestCrossValidateLeaveOneFamilyOut(t *testing.T) {
	folds, err := CrossValidate(evaluator(), 3840, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 4 {
		t.Fatalf("folds = %d, want 4 (Fig. 1 families)", len(folds))
	}
	names := map[string]bool{}
	for _, f := range folds {
		names[f.HeldOut] = true
		t.Logf("held-out %-11s train median τ=%.3f  test median τ=%.3f (n=%d)",
			f.HeldOut, f.Train.Median, f.Test.Median, f.Test.N)
		if f.Test.N == 0 || f.Train.N == 0 {
			t.Errorf("%s: empty fold", f.HeldOut)
		}
		// The generalization claim: ranking unseen shape families still
		// works clearly better than chance.
		if f.Test.Median < 0.15 {
			t.Errorf("%s: held-out median τ = %.3f, want ≥ 0.15", f.HeldOut, f.Test.Median)
		}
	}
	for _, want := range []string{"line", "hyperplane", "hypercube", "laplacian"} {
		if !names[want] {
			t.Errorf("missing fold %q", want)
		}
	}
}

func TestFamilyOf(t *testing.T) {
	cases := map[string]string{
		"train-3d-laplacian-o2-b1-double/128x128x128": "laplacian",
		"train-2d-line-o1-b1-float/256x256":           "line",
		"weird":                                       "",
	}
	for q, want := range cases {
		if got := familyOf(q); got != want {
			t.Errorf("familyOf(%q) = %q, want %q", q, got, want)
		}
	}
}
