package core

import (
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
	} {
		cands := tunespace.NewSpace(bc.q.Kernel.Dims()).Predefined()
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
