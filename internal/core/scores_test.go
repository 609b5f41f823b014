package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/feature"
	"repro/internal/stencil"
	"repro/internal/svmrank"
	"repro/internal/tunespace"
)

// randomTuner is a tuner around a random full-width model: scoring cost and
// bit-exactness do not depend on the weights being trained.
func randomTuner(seed int64) *Tuner {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, feature.Dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return New(&svmrank.Model{W: w})
}

// TestScoresMatchEncodeThenScore checks the plan-based scoring pass against
// the materialised path bit for bit, on both predefined sets (the 3-D one
// crosses the fan-out threshold) and with more than one worker.
func TestScoresMatchEncodeThenScore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tu := randomTuner(3)
	for _, q := range []stencil.Instance{
		{Kernel: stencil.Blur(), Size: stencil.Size2D(1023, 768)},
		lap128(),
	} {
		cands := tunespace.NewSpace(q.Kernel.Dims()).PredefinedFused()
		got, err := tu.Scores(q, cands)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cands {
			want := tu.Model.Score(tu.Encoder.Encode(q, c))
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s %v: Scores %v, Score(Encode) %v", q.ID(), c, got[i], want)
			}
		}
		if best, _ := tu.Best(q, cands); best != cands[tu.Model.ArgBestBatch(encodeAll(tu, q, cands))] {
			t.Errorf("%s: Best %v disagrees with the materialised argmax", q.ID(), best)
		}
	}
}

func encodeAll(tu *Tuner, q stencil.Instance, cands []tunespace.Vector) []feature.Vector {
	xs := make([]feature.Vector, len(cands))
	for i, c := range cands {
		xs[i] = tu.Encoder.Encode(q, c)
	}
	return xs
}

// TestBestAllocationsIndependentOfCandidateCount: Best builds one plan and
// one score slice, however many candidates it ranks.
func TestBestAllocationsIndependentOfCandidateCount(t *testing.T) {
	tu := randomTuner(1)
	q := lap128()
	all := tunespace.NewSpace(3).Predefined()
	var counts []float64
	for _, n := range []int{10, 1600, len(all)} {
		cands := all[:n]
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if _, err := tu.Best(q, cands); err != nil {
				t.Fatal(err)
			}
		}))
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("Best allocations grow with the candidate count: %v for 10, 1600, 8640", counts)
		}
	}
	if counts[0] > 8 {
		t.Errorf("Best allocates %v times per call, want ≤ 8", counts[0])
	}
}

func BenchmarkTunerBest(b *testing.B) {
	tu := randomTuner(1)
	for _, bc := range []struct {
		name string
		q    stencil.Instance
	}{
		{"2D", stencil.Instance{Kernel: stencil.Blur(), Size: stencil.Size2D(1024, 768)}},
		{"3D", lap128()},
		{"3D-fused", lap128()},
	} {
		cands := tunespace.NewSpace(bc.q.Kernel.Dims()).Predefined()
		if bc.name == "3D-fused" {
			// 34,560 candidates: every depth K = 1..4 of the 3-D set.
			cands = tunespace.NewSpace(3).PredefinedFused(1, 2, 3, 4)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tu.Best(bc.q, cands); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScoresFanOut times scoring n candidates on one goroutine against
// fanning them out over GOMAXPROCS chunks, the two sides of
// scoreParallelThreshold. n=1600 is the 2-D predefined set, n=8640 the 3-D
// one and n=34560 the 3-D set at every depth K = 1..4; the other sizes are
// prefixes of the 3-D sets.
func BenchmarkScoresFanOut(b *testing.B) {
	tu := randomTuner(1)
	blur := stencil.Instance{Kernel: stencil.Blur(), Size: stencil.Size2D(1024, 768)}
	set3 := tunespace.NewSpace(3).Predefined()
	fused3 := tunespace.NewSpace(3).PredefinedFused(1, 2, 3, 4)
	for _, bc := range []struct {
		q     stencil.Instance
		cands []tunespace.Vector
	}{
		{lap128(), set3[:256]},
		{lap128(), set3[:512]},
		{lap128(), set3[:1024]},
		{blur, tunespace.NewSpace(2).Predefined()},
		{lap128(), set3},
		{lap128(), fused3[:17280]},
		{lap128(), fused3},
	} {
		plan := tu.Encoder.Plan(bc.q)
		out := make([]float64, len(bc.cands))
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", len(bc.cands), workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					scoreChunks(plan, out, tu.Model.W, bc.cands, workers)
				}
			})
		}
	}
}

// TestHybridModelBestIsBest: the hybrid result's unmeasured top-1 is the
// head of its ranking, so it equals Best on the same candidate set.
func TestHybridModelBestIsBest(t *testing.T) {
	tu := randomTuner(5)
	q := lap128()
	cands := tunespace.NewSpace(3).Predefined()
	res, err := tu.HybridTopK(q, cands, 3, func(vs []tunespace.Vector) []float64 {
		out := make([]float64, len(vs))
		for i := range out {
			out[i] = float64(len(vs) - i)
		}
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	best, err := tu.Best(q, cands)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelBest != best {
		t.Errorf("ModelBest %v, Best %v", res.ModelBest, best)
	}
	if res.RankTime <= 0 {
		t.Errorf("RankTime = %v, want the ranking time", res.RankTime)
	}
}

// TestHybridTopKMatchesRankThenSlice checks the selected top-k against the
// reference that sorts the whole set: rank, keep the first k, measure them
// and keep the first strict minimum in rank order. The zero and sparse
// models make most scores tie, and the objective ties too, so both the
// selection's and the winner's tie-breaking are exercised.
func TestHybridTopKMatchesRankThenSlice(t *testing.T) {
	obj := func(vs []tunespace.Vector) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = float64((v.Bx*7+v.By*13+v.Bz*3+v.U*5+v.C)%11) + 0.5
		}
		return out
	}
	sparse := make([]float64, feature.Dim)
	for i := len(sparse) - 8; i < len(sparse); i++ {
		sparse[i] = float64(i % 3)
	}
	tuners := []*Tuner{
		randomTuner(7),
		New(&svmrank.Model{W: make([]float64, feature.Dim)}),
		New(&svmrank.Model{W: sparse}),
	}
	for ti, tu := range tuners {
		for _, q := range []stencil.Instance{lap128(), {Kernel: stencil.Blur(), Size: stencil.Size2D(1023, 768)}} {
			cands := tunespace.NewSpace(q.Kernel.Dims()).Predefined()
			order, err := tu.Rank(q, cands)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 4, 16, len(cands), len(cands) + 3} {
				got, err := tu.HybridTopK(q, cands, k, obj)
				if err != nil {
					t.Fatal(err)
				}
				top := make([]tunespace.Vector, min(k, len(order)))
				for i := range top {
					top[i] = cands[order[i]]
				}
				want := HybridResult{ModelBest: top[0], Evaluations: len(top)}
				for i, v := range obj(top) {
					if i == 0 || v < want.BestValue {
						want.Best, want.BestValue = top[i], v
					}
				}
				if got.Best != want.Best || got.BestValue != want.BestValue ||
					got.ModelBest != want.ModelBest || got.Evaluations != want.Evaluations {
					t.Errorf("tuner %d %s k=%d: got best %v (%g) model-best %v evals %d, want %v (%g) %v %d",
						ti, q.ID(), k, got.Best, got.BestValue, got.ModelBest, got.Evaluations,
						want.Best, want.BestValue, want.ModelBest, want.Evaluations)
				}
			}
		}
	}
}
