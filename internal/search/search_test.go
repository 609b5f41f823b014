package search

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// quadObjective has a unique optimum at (bx=64, by=16, bz=4, u=4, c=2) with a
// smooth quadratic landscape in log space.
func quadObjective(v tunespace.Vector) float64 {
	d := func(x int, opt float64) float64 {
		l := math.Log2(float64(x)) - math.Log2(opt)
		return l * l
	}
	return 1 + d(v.Bx, 64) + d(v.By, 16) + d(v.Bz, 4) +
		0.2*float64(v.U-4)*float64(v.U-4) + 0.3*d(v.C, 2)
}

func simObjective(q stencil.Instance) Objective {
	m := perfmodel.New(machine.XeonE52680v3())
	return func(v tunespace.Vector) float64 { return m.Runtime(q, v) }
}

func allEngines() []Engine { return Engines() }

func TestEnginesRespectBudget(t *testing.T) {
	space := tunespace.NewSpace(3)
	for _, e := range allEngines() {
		for _, budget := range []int{1, 7, 64} {
			r := e.Search(space, quadObjective, budget, 1)
			if r.Evaluations > budget {
				t.Errorf("%s: used %d evaluations, budget %d", e.Name(), r.Evaluations, budget)
			}
			if len(r.History) != r.Evaluations {
				t.Errorf("%s: history length %d != evaluations %d", e.Name(), len(r.History), r.Evaluations)
			}
		}
	}
}

func TestEnginesFindGoodQuadraticSolutions(t *testing.T) {
	space := tunespace.NewSpace(3)
	for _, e := range allEngines() {
		r := e.Search(space, quadObjective, 512, 7)
		// Every engine should approach the optimum (1.0).
		limit := 2.0
		if r.BestValue > limit {
			t.Errorf("%s: best %.3f after 512 evals, want ≤ %.1f (optimum 1.0)", e.Name(), r.BestValue, limit)
		}
		if err := r.Best.Validate(3); err != nil {
			t.Errorf("%s: best vector invalid: %v", e.Name(), err)
		}
	}
}

func TestEvolutionaryEnginesBeatRandomOnSimulator(t *testing.T) {
	q := stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(128, 128, 128)}
	space := tunespace.NewSpace(3)
	// Average over seeds to avoid flakiness.
	avg := func(e Engine) float64 {
		var sum float64
		for seed := int64(0); seed < 5; seed++ {
			r := e.Search(space, simObjective(q), 256, seed)
			sum += r.BestValue
		}
		return sum / 5
	}
	// The random baseline samples the space uniformly under the same
	// budget.
	var randomBest float64
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		obj, best := simObjective(q), math.Inf(1)
		for range 256 {
			best = math.Min(best, obj(space.Random(rng)))
		}
		randomBest += best / 5
	}
	for _, e := range Engines() {
		if got := avg(e); got > randomBest*1.10 {
			t.Errorf("%s: avg best %.5f noticeably worse than random %.5f", e.Name(), got, randomBest)
		}
	}
}

func TestHistoryMonotoneNonIncreasing(t *testing.T) {
	space := tunespace.NewSpace(2)
	for _, e := range allEngines() {
		r := e.Search(space, quadObjective, 200, 3)
		for i := 1; i < len(r.History); i++ {
			if r.History[i].Value > r.History[i-1].Value {
				t.Fatalf("%s: best-so-far increased at %d: %v -> %v",
					e.Name(), i, r.History[i-1].Value, r.History[i].Value)
			}
		}
		last := r.History[len(r.History)-1]
		if last.Value != r.BestValue {
			t.Errorf("%s: final history %v != best %v", e.Name(), last.Value, r.BestValue)
		}
	}
}

func TestBestAfter(t *testing.T) {
	space := tunespace.NewSpace(3)
	r := NewGenerationalGA().Search(space, quadObjective, 100, 5)
	if r.BestAfter(1) < r.BestAfter(100) {
		t.Error("BestAfter should be non-increasing")
	}
	if got := r.BestAfter(100); got != r.BestValue {
		t.Errorf("BestAfter(budget) = %v, want %v", got, r.BestValue)
	}
	if r.BestAfter(0) != r.BestAfter(1) {
		t.Error("BestAfter clamps below")
	}
	if r.BestAfter(10_000) != r.BestValue {
		t.Error("BestAfter clamps above")
	}
	empty := Result{BestValue: 3.5}
	if empty.BestAfter(10) != 3.5 {
		t.Error("empty history BestAfter should return BestValue")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	space := tunespace.NewSpace(3)
	for _, e := range allEngines() {
		a := e.Search(space, quadObjective, 128, 99)
		b := e.Search(space, quadObjective, 128, 99)
		if a.Best != b.Best || a.BestValue != b.BestValue {
			t.Errorf("%s: non-deterministic for fixed seed", e.Name())
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	space := tunespace.NewSpace(3)
	e := NewGenerationalGA()
	a := e.Search(space, quadObjective, 64, 1)
	b := e.Search(space, quadObjective, 64, 2)
	if a.Best == b.Best && a.BestValue == b.BestValue && a.History[10] == b.History[10] {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestMemoAvoidsRecomputationButChargesBudget(t *testing.T) {
	// Re-proposing a seen configuration costs an iteration (the paper's
	// engines run a fixed number of iterations) but not a recomputation.
	calls := 0
	obj := func(v tunespace.Vector) float64 {
		calls++
		return 1
	}
	tr := newTracker(obj, 10)
	v := tunespace.Vector{Bx: 4, By: 4, Bz: 4, U: 0, C: 1}
	tr.eval(v)
	tr.eval(v)
	tr.eval(v)
	if calls != 1 {
		t.Errorf("objective called %d times for the same vector", calls)
	}
	if tr.used != 3 {
		t.Errorf("budget charged %d times, want 3", tr.used)
	}
}

func TestTrackerTerminatesOnConvergedEngine(t *testing.T) {
	// A degenerate engine proposing the same vector forever must exhaust
	// its budget rather than loop (the regression behind this test hung
	// Fig. 4 for minutes).
	obj := func(v tunespace.Vector) float64 { return 1 }
	tr := newTracker(obj, 5)
	v := tunespace.Vector{Bx: 4, By: 4, Bz: 4, U: 0, C: 1}
	for i := 0; i < 5; i++ {
		if _, ok := tr.eval(v); !ok {
			t.Fatalf("eval %d rejected before budget exhausted", i)
		}
	}
	if !tr.exhausted() {
		t.Fatal("tracker should be exhausted after budget duplicate proposals")
	}
}

func TestTrackerBudgetExhaustion(t *testing.T) {
	obj := func(v tunespace.Vector) float64 { return float64(v.Bx) }
	tr := newTracker(obj, 2)
	a := tunespace.Vector{Bx: 4, By: 4, Bz: 4, U: 0, C: 1}
	b := tunespace.Vector{Bx: 8, By: 4, Bz: 4, U: 0, C: 1}
	c := tunespace.Vector{Bx: 16, By: 4, Bz: 4, U: 0, C: 1}
	if _, ok := tr.eval(a); !ok {
		t.Fatal("first eval should succeed")
	}
	if _, ok := tr.eval(b); !ok {
		t.Fatal("second eval should succeed")
	}
	if _, ok := tr.eval(c); ok {
		t.Fatal("third eval should be rejected")
	}
	// Cached vectors still answer (for free) after exhaustion.
	if v, ok := tr.eval(a); !ok || v != 4 {
		t.Error("cached eval should not be budget-limited after exhaustion")
	}
}

func TestEnginesList(t *testing.T) {
	es := Engines()
	if len(es) != 4 {
		t.Fatalf("Engines() = %d entries, want 4 (Fig. 4 legend)", len(es))
	}
	names := map[string]bool{}
	for _, e := range es {
		names[e.Name()] = true
	}
	for _, want := range []string{"genetic algorithm", "differential evolution", "evolutive strategy", "sGA"} {
		if !names[want] {
			t.Errorf("missing engine %q", want)
		}
	}
}

func TestTinyBudgets(t *testing.T) {
	space := tunespace.NewSpace(3)
	for _, e := range allEngines() {
		r := e.Search(space, quadObjective, 1, 1)
		if r.Evaluations != 1 {
			t.Errorf("%s: budget-1 run used %d evaluations", e.Name(), r.Evaluations)
		}
		if r.BestValue >= 1e308 {
			t.Errorf("%s: budget-1 run found nothing", e.Name())
		}
	}
}

func TestElapsedPopulated(t *testing.T) {
	space := tunespace.NewSpace(3)
	r := NewGenerationalGA().Search(space, quadObjective, 64, 1)
	if r.Elapsed <= 0 {
		t.Error("Elapsed not populated")
	}
	if r.Engine != "genetic algorithm" {
		t.Errorf("Engine = %q", r.Engine)
	}
}
