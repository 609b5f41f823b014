package search

import (
	"sync"
	"testing"

	"repro/internal/tunespace"
)

// concurrentBatch turns a deterministic Objective into a BatchObjective that
// really evaluates on `workers` goroutines — the shape dataset.Batched
// produces — so these tests exercise the concurrent path (and trip the race
// detector if ordering ever leaks into shared state).
func concurrentBatch(obj Objective, workers int) BatchObjective {
	return func(vs []tunespace.Vector) []float64 {
		out := make([]float64, len(vs))
		w := min(workers, len(vs))
		chunk := (len(vs) + w - 1) / w
		var wg sync.WaitGroup
		for s := 0; s < len(vs); s += chunk {
			e := min(s+chunk, len(vs))
			wg.Add(1)
			go func(s, e int) {
				defer wg.Done()
				for i := s; i < e; i++ {
					out[i] = obj(vs[i])
				}
			}(s, e)
		}
		wg.Wait()
		return out
	}
}

// batchTestEngines is every engine the package ships, including the
// inherently sequential steady-state GA (which must still work through
// SearchBatch).
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

func TestBatchedMatchesSequential(t *testing.T) {
	space := tunespace.NewSpace(3)
	for _, workers := range []int{2, 4, 8} {
		for _, e := range batchTestEngines() {
			seq := e.Search(space, quadObjective, 300, 7)
			bat := e.SearchBatch(space, concurrentBatch(quadObjective, workers), 300, 7)
			assertResultsIdentical(t, e.Name(), seq, bat)
		}
	}
}

func TestBatchedMatchesSequential2D(t *testing.T) {
	space := tunespace.NewSpace(2)
	for _, e := range batchTestEngines() {
		seq := e.Search(space, quadObjective, 150, 3)
		bat := e.SearchBatch(space, concurrentBatch(quadObjective, 4), 150, 3)
		assertResultsIdentical(t, e.Name(), seq, bat)
	}
}

func TestBatchedRespectsBudget(t *testing.T) {
	space := tunespace.NewSpace(3)
	for _, e := range batchTestEngines() {
		for _, budget := range []int{1, 7, 65} {
			r := e.SearchBatch(space, concurrentBatch(quadObjective, 4), budget, 1)
			if r.Evaluations > budget {
				t.Errorf("%s: used %d evaluations, budget %d", e.Name(), r.Evaluations, budget)
			}
			if len(r.History) != r.Evaluations {
				t.Errorf("%s: history length %d != evaluations %d", e.Name(), len(r.History), r.Evaluations)
			}
		}
	}
}

// TestBatchDedupSingleEvaluation asserts the tracker sends each distinct
// vector to the objective at most once per run, even when one batch proposes
// it several times.
func TestBatchDedupSingleEvaluation(t *testing.T) {
	var mu sync.Mutex
	calls := map[tunespace.Vector]int{}
	obj := func(v tunespace.Vector) float64 {
		mu.Lock()
		calls[v]++
		mu.Unlock()
		return quadObjective(v)
	}
	tr := newTracker(concurrentBatch(obj, 4), 10)
	v := tunespace.Vector{Bx: 4, By: 4, Bz: 4, U: 0, C: 1}
	w := tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 1, C: 2}
	vals := tr.evalBatch([]tunespace.Vector{v, w, v, w, v})
	if len(vals) != 5 {
		t.Fatalf("got %d values, want 5", len(vals))
	}
	if vals[0] != vals[2] || vals[0] != vals[4] || vals[1] != vals[3] {
		t.Error("duplicate proposals returned different values")
	}
	if calls[v] != 1 || calls[w] != 1 {
		t.Errorf("objective called %d/%d times, want 1/1", calls[v], calls[w])
	}
	if tr.used != 5 {
		t.Errorf("budget charged %d times, want 5 (duplicates still cost iterations)", tr.used)
	}
}

// TestBatchTruncatesToBudget asserts oversized batches charge only the
// remaining budget, in proposal order.
func TestBatchTruncatesToBudget(t *testing.T) {
	tr := newTracker(SequentialBatch(quadObjective), 3)
	vs := make([]tunespace.Vector, 5)
	for i := range vs {
		vs[i] = tunespace.Vector{Bx: 4 << i, By: 4, Bz: 4, U: 0, C: 1}
	}
	vals := tr.evalBatch(vs)
	if len(vals) != 3 {
		t.Fatalf("accepted %d proposals, want 3", len(vals))
	}
	if !tr.exhausted() {
		t.Error("tracker should be exhausted")
	}
	if got := tr.evalBatch(vs); got != nil {
		t.Errorf("exhausted tracker accepted %d more proposals", len(got))
	}
	for i, v := range vs[:3] {
		if vals[i] != quadObjective(v) {
			t.Errorf("value %d mismatch", i)
		}
	}
}
