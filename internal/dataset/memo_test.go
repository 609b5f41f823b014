package dataset

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// countingEval wraps the simulator with a thread-safe call counter.
type countingEval struct {
	inner Evaluator
	calls atomic.Int64
}

func (c *countingEval) Runtime(q stencil.Instance, t tunespace.Vector) float64 {
	c.calls.Add(1)
	return c.inner.Runtime(q, t)
}

func testInstance() stencil.Instance {
	return stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(64, 64, 64)}
}

func testVectors(n int) []tunespace.Vector {
	out := make([]tunespace.Vector, n)
	for i := range out {
		out[i] = tunespace.Vector{Bx: 2 << (i % 9), By: 4, Bz: 4, U: i % 9, C: 1 + i%16}
	}
	return out
}

func TestMemoizedCachesAcrossCalls(t *testing.T) {
	c := &countingEval{inner: evaluator()}
	m := Memoized(c)
	q := testInstance()
	vs := testVectors(10)

	first := runtimes(m, q, vs)
	if got := c.calls.Load(); got != 10 {
		t.Fatalf("first pass: %d evaluations, want 10", got)
	}
	second := runtimes(m, q, vs)
	if got := c.calls.Load(); got != 10 {
		t.Errorf("repeat pass re-evaluated: %d calls", got)
	}
	for i := range vs {
		if first[i] != second[i] {
			t.Fatalf("cached value %d differs", i)
		}
	}
}

// runtimes evaluates vs in order, the way a search generation or a predict
// request's vector list reaches the evaluator.
func runtimes(e Evaluator, q stencil.Instance, vs []tunespace.Vector) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = e.Runtime(q, v)
	}
	return out
}

// TestMemoizedDedupesWithinBatch: a list of vectors that repeats some of
// them evaluates each distinct vector once.
func TestMemoizedDedupesWithinBatch(t *testing.T) {
	c := &countingEval{inner: evaluator()}
	m := Memoized(c)
	q := testInstance()
	v := tunespace.Vector{Bx: 32, By: 16, Bz: 8, U: 2, C: 2}
	w := tunespace.Vector{Bx: 64, By: 16, Bz: 8, U: 2, C: 2}
	out := runtimes(m, q, []tunespace.Vector{v, w, v, v, w})
	if got := c.calls.Load(); got != 2 {
		t.Errorf("%d evaluations for 2 distinct vectors", got)
	}
	if out[0] != out[2] || out[0] != out[3] || out[1] != out[4] {
		t.Error("duplicate slots differ")
	}
}

func TestMemoizedSeparatesInstances(t *testing.T) {
	m := Memoized(evaluator())
	v := tunespace.Vector{Bx: 32, By: 16, Bz: 8, U: 2, C: 2}
	a := m.Runtime(stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(64, 64, 64)}, v)
	b := m.Runtime(stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(128, 128, 128)}, v)
	if a == b {
		t.Error("different instances answered from one cache slot")
	}
}

func TestMemoizedConcurrentUse(t *testing.T) {
	m := Memoized(evaluator())
	q := testInstance()
	vs := testVectors(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i := range vs {
					m.Runtime(q, vs[(i+g)%len(vs)])
				}
			}
		}(g)
	}
	wg.Wait()
	seq := evaluator()
	for _, tv := range vs {
		if m.Runtime(q, tv) != seq.Runtime(q, tv) {
			t.Fatal("concurrent use corrupted cached values")
		}
	}
}

// TestGenerateParallelMatchesSequential is the dataset half of the PR's
// determinism guarantee: same seed → byte-identical Set at any worker count.
func TestGenerateParallelMatchesSequential(t *testing.T) {
	for _, target := range []int{50, 960, 3840} {
		opts := Options{TargetPoints: target, Seed: 7}
		seq, err := Generate(evaluator(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8, -1} {
			opts.Workers = workers
			par, err := Generate(evaluator(), opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSetsIdentical(t, seq, par)
		}
	}
}

func TestGenerateParallelMatchesSequentialHeuristic(t *testing.T) {
	base := Options{TargetPoints: 960, Seed: 3, Sampling: HeuristicMixed}
	seq, err := Generate(evaluator(), base)
	if err != nil {
		t.Fatal(err)
	}
	base.Workers = 6
	par, err := Generate(evaluator(), base)
	if err != nil {
		t.Fatal(err)
	}
	assertSetsIdentical(t, seq, par)
}

func assertSetsIdentical(t *testing.T, a, b *Set) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("set sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Executions {
		x, y := a.Executions[i], b.Executions[i]
		if x.Instance.ID() != y.Instance.ID() || x.Tuning != y.Tuning || x.Runtime != y.Runtime {
			t.Fatalf("execution %d differs: %v vs %v", i, x, y)
		}
	}
	if a.Data.Len() != b.Data.Len() {
		t.Fatalf("dataset sizes differ: %d vs %d", a.Data.Len(), b.Data.Len())
	}
	for i := range a.Data.Examples {
		x, y := a.Data.Examples[i], b.Data.Examples[i]
		if x.Query != y.Query || x.Y != y.Y {
			t.Fatalf("example %d differs", i)
		}
		if x.X.NNZ() != y.X.NNZ() {
			t.Fatalf("example %d feature lengths differ", i)
		}
		for j := range x.X.Idx {
			if x.X.Idx[j] != y.X.Idx[j] || x.X.Val[j] != y.X.Val[j] {
				t.Fatalf("example %d feature %d differs", i, j)
			}
		}
	}
	if a.SimulatedExecTime != b.SimulatedExecTime || a.SimulatedCompileTime != b.SimulatedCompileTime {
		t.Error("accounted costs differ between worker counts")
	}
}

// nanEval answers NaN for one specific vector — the regression case for the
// memo cache, which must cache NaN results rather than re-evaluating them or
// filling their slot from another vector's value.
type nanEval struct {
	inner Evaluator
	bad   tunespace.Vector
	calls atomic.Int64
}

func (n *nanEval) Runtime(q stencil.Instance, t tunespace.Vector) float64 {
	n.calls.Add(1)
	if t == n.bad {
		return math.NaN()
	}
	return n.inner.Runtime(q, t)
}

func TestMemoizedCachesNaNRuntimes(t *testing.T) {
	bad := tunespace.Vector{Bx: 32, By: 16, Bz: 8, U: 2, C: 2}
	good := tunespace.Vector{Bx: 64, By: 16, Bz: 8, U: 2, C: 2}
	e := &nanEval{inner: evaluator(), bad: bad}
	m := Memoized(e)
	q := testInstance()

	first := runtimes(m, q, []tunespace.Vector{bad, good})
	if !math.IsNaN(first[0]) || math.IsNaN(first[1]) {
		t.Fatalf("first pass wrong: %v", first)
	}
	second := runtimes(m, q, []tunespace.Vector{bad, good})
	if !math.IsNaN(second[0]) {
		t.Errorf("cached NaN slot answered %v (filled from another vector?)", second[0])
	}
	if second[1] != first[1] {
		t.Errorf("good slot changed: %v vs %v", second[1], first[1])
	}
	if got := e.calls.Load(); got != 2 {
		t.Errorf("%d evaluations, want 2 (NaN must be cached too)", got)
	}
}
