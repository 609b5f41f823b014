package svmrank

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/feature"
	"repro/internal/ranking"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// synthDataset builds a dataset whose runtimes are a noisy linear function of
// a few feature components — separable enough that a ranking SVM must learn
// to order it nearly perfectly.
func synthDataset(queries, perQuery int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	enc := feature.NewEncoder()
	d := &Dataset{}
	// Use real encodings of real instances so the test exercises the same
	// sparse paths as production.
	kernels := []*stencil.Kernel{stencil.Laplacian(), stencil.Gradient(), stencil.Laplacian6()}
	sizes := []stencil.Size{stencil.Size3D(64, 64, 64), stencil.Size3D(128, 128, 128)}
	space := tunespace.NewSpace(3)
	qi := 0
	for _, k := range kernels {
		for _, s := range sizes {
			if qi >= queries {
				break
			}
			qi++
			q := stencil.Instance{Kernel: k, Size: s}
			for e := 0; e < perQuery; e++ {
				tv := space.Random(rng)
				x := enc.Encode(q, tv)
				// Synthetic runtime: prefers large bx, small unroll.
				y := 10 - 5*math.Log2(float64(tv.Bx))/10 + 0.5*float64(tv.U)/8 +
					0.01*rng.Float64()
				d.Add(Example{Query: q.ID(), X: x, Y: y})
			}
		}
	}
	return d
}

func TestGeneratePairsFull(t *testing.T) {
	d := &Dataset{}
	for i, y := range []float64{3, 1, 2} {
		d.Add(Example{Query: "q", X: feature.Vector{}, Y: y})
		_ = i
	}
	pairs := GeneratePairs(d, PairOptions{Strategy: FullPairs})
	if len(pairs) != 3 {
		t.Fatalf("pairs = %d, want 3", len(pairs))
	}
	for _, p := range pairs {
		if d.Examples[p.I].Y >= d.Examples[p.J].Y {
			t.Fatalf("pair (%d,%d) not ordered: %v >= %v", p.I, p.J, d.Examples[p.I].Y, d.Examples[p.J].Y)
		}
	}
}

func TestGeneratePairsRespectsQueryBoundaries(t *testing.T) {
	// Cross-query comparisons must never be generated (Sec. IV-D).
	d := &Dataset{}
	d.Add(Example{Query: "a", Y: 1})
	d.Add(Example{Query: "a", Y: 2})
	d.Add(Example{Query: "b", Y: 3})
	d.Add(Example{Query: "b", Y: 4})
	pairs := GeneratePairs(d, PairOptions{Strategy: FullPairs})
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d, want 2 (1 per query)", len(pairs))
	}
	for _, p := range pairs {
		if d.Examples[p.I].Query != d.Examples[p.J].Query {
			t.Fatalf("cross-query pair (%d,%d)", p.I, p.J)
		}
	}
}

func TestGeneratePairsSkipsTies(t *testing.T) {
	d := &Dataset{}
	d.Add(Example{Query: "q", Y: 5})
	d.Add(Example{Query: "q", Y: 5})
	pairs := GeneratePairs(d, PairOptions{Strategy: FullPairs})
	if len(pairs) != 0 {
		t.Fatalf("tie generated %d pairs", len(pairs))
	}
}

func TestGeneratePairsAdjacentWindow(t *testing.T) {
	d := &Dataset{}
	for _, y := range []float64{1, 2, 3, 4, 5, 6} {
		d.Add(Example{Query: "q", Y: y})
	}
	pairs := GeneratePairs(d, PairOptions{Strategy: AdjacentPairs, Window: 2})
	// Each of the 6 sorted items pairs with up to 2 successors: 5+4 = 9.
	if len(pairs) != 9 {
		t.Fatalf("pairs = %d, want 9", len(pairs))
	}
}

func TestGeneratePairsSingletonQuery(t *testing.T) {
	d := &Dataset{}
	d.Add(Example{Query: "only", Y: 1})
	for _, s := range []PairStrategy{FullPairs, AdjacentPairs} {
		if pairs := GeneratePairs(d, PairOptions{Strategy: s}); len(pairs) != 0 {
			t.Errorf("%v: singleton query produced %d pairs", s, len(pairs))
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, _, err := Train(&Dataset{}, Options{}); err == nil {
		t.Error("empty dataset accepted")
	}
	d := &Dataset{}
	d.Add(Example{Query: "q", Y: 1})
	if _, _, err := Train(d, Options{C: 1}); err == nil {
		t.Error("pairless dataset accepted")
	}
	d.Add(Example{Query: "q", Y: 2})
	for _, c := range []float64{0, -1} {
		if _, _, err := Train(d, Options{C: c}); err == nil {
			t.Errorf("C = %v accepted", c)
		}
	}
}

func TestTrainLearnsSeparableOrdering(t *testing.T) {
	d := synthDataset(6, 40, 1)
	model, stats, err := Train(d, Options{C: 0.01, Epochs: 30,
		Pairs: PairOptions{Strategy: AdjacentPairs, Window: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pairs == 0 {
		t.Fatal("no pairs")
	}
	// Kendall τ between predicted scores (negated: higher=better) and
	// runtimes per query must be strongly positive.
	groups := d.Groups()
	var worst float64 = 1
	for _, idx := range groups {
		ys := make([]float64, len(idx))
		scores := make([]float64, len(idx))
		for i, e := range idx {
			ys[i] = d.Examples[e].Y
			scores[i] = -model.Score(d.Examples[e].X)
		}
		tau := ranking.KendallTau(ys, scores)
		if tau < worst {
			worst = tau
		}
	}
	if worst < 0.6 {
		t.Errorf("worst per-query τ = %.3f, want ≥ 0.6", worst)
	}
}

func TestDCDBeatsRandomOnRealModelData(t *testing.T) {
	d := synthDataset(6, 60, 2)
	model, _, err := Train(d, Options{C: 0.01, Epochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	var nonzero int
	for _, w := range model.W {
		if w != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("trained weight vector is all zero")
	}
}

func TestHigherCFitsTighter(t *testing.T) {
	// More regularization freedom (larger C) must not increase the number of
	// margin violations on the training set.
	d := synthDataset(4, 30, 3)
	_, weak, err := Train(d, Options{C: 1e-6, Epochs: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, strong, err := Train(d, Options{C: 10, Epochs: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strong.Violations > weak.Violations {
		t.Errorf("C=10 violations %d > C=1e-6 violations %d", strong.Violations, weak.Violations)
	}
}

func TestTrainDeterministicGivenSeed(t *testing.T) {
	d := synthDataset(3, 25, 4)
	m1, _, err := Train(d, Options{C: 0.01, Seed: 42, Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Train(d, Options{C: 0.01, Seed: 42, Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.W {
		if m1.W[i] != m2.W[i] {
			t.Fatal("training not deterministic for fixed seed")
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	d := synthDataset(3, 20, 5)
	_, stats, err := Train(d, Options{C: 0.01, Epochs: 15})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pairs <= 0 || stats.Epochs <= 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
	if stats.Objective <= 0 {
		t.Errorf("objective = %v, want > 0", stats.Objective)
	}
	if stats.TrainTime <= 0 {
		t.Errorf("train time = %v", stats.TrainTime)
	}
}

func TestDatasetQueriesAndGroups(t *testing.T) {
	d := &Dataset{}
	d.Add(Example{Query: "b", Y: 1})
	d.Add(Example{Query: "a", Y: 2})
	d.Add(Example{Query: "b", Y: 3})
	qs := d.Queries()
	if len(qs) != 2 || qs[0] != "b" || qs[1] != "a" {
		t.Errorf("Queries = %v (first-appearance order expected)", qs)
	}
	g := d.Groups()
	if len(g["b"]) != 2 || len(g["a"]) != 1 {
		t.Errorf("Groups = %v", g)
	}
}

func TestStrategyStrings(t *testing.T) {
	if FullPairs.String() != "full" || AdjacentPairs.String() != "adjacent" ||
		PairStrategy(9).String() != "?" {
		t.Error("strategy names wrong")
	}
}

func TestScoreBatchMatchesScore(t *testing.T) {
	d := synthDataset(4, 30, 1)
	m, _, err := Train(d, Options{C: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]feature.Vector, d.Len())
	for i, e := range d.Examples {
		xs[i] = e.X
	}
	scores := m.ScoreBatch(xs)
	if len(scores) != len(xs) {
		t.Fatalf("got %d scores for %d vectors", len(scores), len(xs))
	}
	for i, x := range xs {
		if scores[i] != m.Score(x) {
			t.Fatalf("score %d: batch %v != single %v", i, scores[i], m.Score(x))
		}
	}
}

func TestArgBestBatchMatchesRank(t *testing.T) {
	d := synthDataset(6, 40, 2)
	m, _, err := Train(d, Options{C: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]feature.Vector, d.Len())
	for i, e := range d.Examples {
		xs[i] = e.X
	}
	if got, want := m.ArgBestBatch(xs), Order(m.ScoreBatch(xs))[0]; got != want {
		t.Errorf("ArgBestBatch = %d, Order[0] = %d", got, want)
	}
	if m.ArgBestBatch(nil) != -1 {
		t.Error("empty input should return -1")
	}
}

func TestModelConcurrentScoring(t *testing.T) {
	d := synthDataset(4, 30, 1)
	m, _, err := Train(d, Options{C: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]feature.Vector, d.Len())
	for i, e := range d.Examples {
		xs[i] = e.X
	}
	want := m.ScoreBatch(xs)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				got := m.ScoreBatch(xs)
				for i := range got {
					if got[i] != want[i] {
						panic("concurrent scoring diverged")
					}
				}
				m.ArgBestBatch(xs)
			}
		}()
	}
	wg.Wait()
}
