package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
// the materialised path bit for bit, on both predefined sets.
func TestScoresMatchEncodeThenScore(t *testing.T) {
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

// bytesPerRun is testing.AllocsPerRun for bytes: the mean growth of the
// heap's cumulative allocation over runs calls of f, after a warm-up call,
// at GOMAXPROCS 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestBestAllocationsIndependentOfCandidateCount: Best builds one plan and
// holds no score per candidate, so neither its allocations nor their bytes
// grow with the number of candidates it ranks.
func TestBestAllocationsIndependentOfCandidateCount(t *testing.T) {
	tu := randomTuner(1)
	q := lap128()
	all := tunespace.NewSpace(3).Predefined()
	var counts, bytes []float64
	for _, n := range []int{10, 1600, len(all)} {
		cands := all[:n]
		best := func() {
			if _, err := tu.Best(q, cands); err != nil {
				t.Fatal(err)
			}
		}
		counts = append(counts, testing.AllocsPerRun(5, best))
		bytes = append(bytes, bytesPerRun(5, best))
	}
	for i := range counts[1:] {
		if counts[i+1] != counts[0] || bytes[i+1] != bytes[0] {
			t.Fatalf("Best allocations grow with the candidate count: %v allocs, %v bytes for 10, 1600, 8640",
				counts, bytes)
		}
	}
	if counts[0] > 8 {
		t.Errorf("Best allocates %v times per call, want ≤ 8", counts[0])
	}
	// One plan: the head's pattern and named components, far below the
	// 8 bytes per candidate of a score vector.
	if bytes[0] > 2048 {
		t.Errorf("Best allocates %v bytes per call, want ≤ 2048", bytes[0])
	}
}

// coldSizes draws n instance sizes of the given dimensionality as the cold
// workload draws Table III keys: 2-D edges in [128, 4088] and 3-D edges in
// [32, 508], on the workload's grid of 8 and 4.
func coldSizes(dims, n int) []stencil.Size {
	rng := rand.New(rand.NewSource(int64(dims)))
	out := make([]stencil.Size, n)
	for i := range out {
		if dims == 2 {
			out[i] = stencil.Size2D(128+8*rng.Intn(496), 128+8*rng.Intn(496))
		} else {
			out[i] = stencil.Size3D(32+4*rng.Intn(120), 32+4*rng.Intn(120), 32+4*rng.Intn(120))
		}
	}
	return out
}

// BenchmarkTunerBest ranks each predefined set with Best. The cold rows
// rank it for eight cold-drawn sizes in turn: their tile shapes have many
// distinct working sets, tile counts and group counts, which the
// power-of-two sizes of the other rows never show. The shuffled row ranks
// the 3-D set in a random order, where a run of one tile shape holds one
// candidate, so Best can prune no run and scores every candidate: its
// worst order.
func BenchmarkTunerBest(b *testing.B) {
	tu := randomTuner(1)
	blur := stencil.Instance{Kernel: stencil.Blur(), Size: stencil.Size2D(1024, 768)}
	cold := func(k *stencil.Kernel) []stencil.Instance {
		var qs []stencil.Instance
		for _, sz := range coldSizes(k.Dims(), 8) {
			qs = append(qs, stencil.Instance{Kernel: k, Size: sz})
		}
		return qs
	}
	for _, bc := range []struct {
		name string
		qs   []stencil.Instance
	}{
		{"2D", []stencil.Instance{blur}},
		{"3D", []stencil.Instance{lap128()}},
		{"3D-fused", []stencil.Instance{lap128()}},
		{"3D-shuffled", []stencil.Instance{lap128()}},
		{"2D-cold", cold(stencil.Blur())},
		{"3D-cold", cold(stencil.Laplacian())},
	} {
		cands := tunespace.NewSpace(bc.qs[0].Kernel.Dims()).Predefined()
		switch bc.name {
		case "3D-fused":
			// 34,560 candidates: every depth K = 1..4 of the 3-D set.
			cands = tunespace.NewSpace(3).PredefinedFused(1, 2, 3, 4)
		case "3D-shuffled":
			cands = slices.Clone(cands)
			rand.New(rand.NewSource(1)).Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tu.Best(bc.qs[i%len(bc.qs)], cands); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSelectionMatchesFullScores: Best and HybridTopK select while the set
// is scored a chunk at a time; they must pick exactly what ArgMax and TopK
// (topK) pick from the full score vector, ties included. Random normal
// weights, small-integer weights (most scores tie) and a zero model score
// the predefined sets at cold sizes, in set order, shuffled, and the 3-D set
// at every depth.
func TestSelectionMatchesFullScores(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	weights := func(small bool) []float64 {
		w := make([]float64, feature.Dim)
		for i := range w {
			if small {
				w[i] = float64(rng.Intn(3) - 1)
			} else {
				w[i] = rng.NormFloat64()
			}
		}
		return w
	}
	tuners := []*Tuner{
		New(&svmrank.Model{W: weights(false)}),
		New(&svmrank.Model{W: weights(true)}),
		New(&svmrank.Model{W: make([]float64, feature.Dim)}),
	}
	for _, dims := range []int{2, 3} {
		space := tunespace.NewSpace(dims)
		k := stencil.Blur()
		if dims == 3 {
			k = stencil.Laplacian()
		}
		shuffled := slices.Clone(space.Predefined())
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		sets := map[string][]tunespace.Vector{"predefined": space.Predefined(), "shuffled": shuffled}
		if dims == 3 {
			sets["fused"] = space.PredefinedFused(1, 2, 3, 4)
		}
		for _, sz := range coldSizes(dims, 3) {
			q := stencil.Instance{Kernel: k, Size: sz}
			for ti, tu := range tuners {
				for name, cands := range sets {
					what := fmt.Sprintf("tuner %d %s %s", ti, q.ID(), name)
					scores := make([]float64, len(cands))
					tu.Encoder.Plan(q).ScoreInto(scores, tu.Model.W, cands)
					best, err := tu.Best(q, cands)
					if err != nil {
						t.Fatal(err)
					}
					if want := cands[svmrank.ArgMax(scores)]; best != want {
						t.Errorf("%s: Best %v, ArgMax of the scores %v", what, best, want)
					}
					for _, k := range []int{1, 4, 300} {
						var got []tunespace.Vector
						_, err := tu.HybridTopK(q, cands, k, func(v tunespace.Vector) float64 {
							got = append(got, v)
							return 0
						})
						if err != nil {
							t.Fatal(err)
						}
						want := topK(scores, k)
						if len(got) != len(want) {
							t.Fatalf("%s k=%d: measured %d candidates, want %d", what, k, len(got), len(want))
						}
						for i, o := range want {
							if got[i] != cands[o] {
								t.Fatalf("%s k=%d: rank %d is %v, TopK of the scores has %v", what, k, i, got[i], cands[o])
							}
						}
					}
				}
			}
		}
	}
}

// topK is the selection svmrank.TopK makes: svmrank.Top fed the whole score
// vector at once.
func topK(scores []float64, k int) []int {
	t := svmrank.NewTop(min(k, len(scores)))
	t.Add(scores)
	return t.Indices()
}

// TestSelectionFailsWhenNothingScores: finite weights large enough to
// overflow every score to −Inf (every feature value lies in [0, 1], so a
// score is a sum of finite products), or NaN weights, leave no candidate to
// pick. Best and HybridTopK must fail, not index the set with ArgMax's −1.
func TestSelectionFailsWhenNothingScores(t *testing.T) {
	neg := make([]float64, feature.Dim)
	nan := make([]float64, feature.Dim)
	for i := range neg {
		neg[i] = -math.MaxFloat64
		nan[i] = math.NaN()
	}
	q := lap128()
	cands := tunespace.NewSpace(3).Predefined()
	for name, w := range map[string][]float64{"overflowing": neg, "NaN": nan} {
		tu := New(&svmrank.Model{W: w})
		scores, err := tu.Scores(q, cands)
		if err != nil {
			t.Fatal(err)
		}
		if svmrank.ArgMax(scores) >= 0 {
			t.Fatalf("%s weights: some score is above -Inf; the test needs none", name)
		}
		if _, err := tu.Best(q, cands); err == nil {
			t.Errorf("%s weights: Best picked a candidate", name)
		}
		if _, err := tu.HybridTopK(q, cands, 4, func(tunespace.Vector) float64 {
			t.Errorf("%s weights: HybridTopK measured a candidate", name)
			return 0
		}); err == nil {
			t.Errorf("%s weights: HybridTopK picked candidates", name)
		}
	}
}

// TestHybridModelBestIsBest: the hybrid result's unmeasured top-1 is the
// head of its ranking, so it equals Best on the same candidate set.
func TestHybridModelBestIsBest(t *testing.T) {
	tu := randomTuner(5)
	q := lap128()
	cands := tunespace.NewSpace(3).Predefined()
	left := 3.0
	res, err := tu.HybridTopK(q, cands, 3, func(tunespace.Vector) float64 {
		left--
		return left
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
	obj := func(v tunespace.Vector) float64 {
		return float64((v.Bx*7+v.By*13+v.Bz*3+v.U*5+v.C)%11) + 0.5
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
			order, _, err := tu.Rank(q, cands)
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
				for i, v := range top {
					if val := obj(v); i == 0 || val < want.BestValue {
						want.Best, want.BestValue = v, val
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
