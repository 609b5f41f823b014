package search

import (
	"testing"

	"repro/internal/tunespace"
)

// batchTestEngines is every engine the package ships, including the
// inherently sequential steady-state GA.
func batchTestEngines() []Engine { return Engines() }

// assertResultsIdentical compares two runs field by field, including the
// full history trajectory.
func assertResultsIdentical(t *testing.T, name string, a, b Result) {
	t.Helper()
	if a.Best != b.Best || a.BestValue != b.BestValue {
		t.Errorf("%s: best differs: %v (%v) vs %v (%v)", name, a.Best, a.BestValue, b.Best, b.BestValue)
	}
	if a.Evaluations != b.Evaluations {
		t.Errorf("%s: evaluations differ: %d vs %d", name, a.Evaluations, b.Evaluations)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: history lengths differ: %d vs %d", name, len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("%s: history diverges at %d: %+v vs %+v", name, i, a.History[i], b.History[i])
		}
	}
}

func TestAllEnginesDeterministicGivenSeed(t *testing.T) {
	space := tunespace.NewSpace(3)
	for _, e := range batchTestEngines() {
		a := e.Search(space, quadObjective, 200, 42)
		b := e.Search(space, quadObjective, 200, 42)
		assertResultsIdentical(t, e.Name(), a, b)
	}
}

// TestBatchedRespectsBudget asserts that when the budget ends partway through
// a generation, no engine charges more than its budget and the history keeps
// exactly one entry per charged evaluation.
func TestBatchedRespectsBudget(t *testing.T) {
	space := tunespace.NewSpace(3)
	for _, e := range batchTestEngines() {
		for _, budget := range []int{1, 7, 65} {
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

// TestBatchDedupSingleEvaluation asserts that across a whole run, whose
// generations re-propose elites' offspring and converged vectors, the
// objective sees each distinct vector once, and only within the budget.
func TestBatchDedupSingleEvaluation(t *testing.T) {
	space := tunespace.NewSpace(3)
	for _, e := range batchTestEngines() {
		calls := map[tunespace.Vector]int{}
		obj := func(v tunespace.Vector) float64 {
			calls[v]++
			return quadObjective(v)
		}
		r := e.Search(space, obj, 300, 7)
		for v, n := range calls {
			if n != 1 {
				t.Fatalf("%s: objective called %d times for %v", e.Name(), n, v)
			}
		}
		if len(calls) > r.Evaluations {
			t.Errorf("%s: %d objective calls for %d charged evaluations", e.Name(), len(calls), r.Evaluations)
		}
	}
}

// TestBatchTruncatesToBudget asserts that a generation larger than the
// remaining budget is cut to it: every engine spends exactly its budget
// when the budget is not a multiple of its generation size.
func TestBatchTruncatesToBudget(t *testing.T) {
	space := tunespace.NewSpace(3)
	for _, e := range batchTestEngines() {
		for _, budget := range []int{33, 47, 65} {
			if r := e.Search(space, quadObjective, budget, 1); r.Evaluations != budget {
				t.Errorf("%s: budget %d spent %d evaluations", e.Name(), budget, r.Evaluations)
			}
		}
	}
}
