// Package search implements the iterative-compilation search baselines of
// Section VI-A: a generational genetic algorithm, a steady-state genetic
// algorithm (sGA), differential evolution and a (μ+λ) evolution strategy.
// Every engine runs for a fixed evaluation budget (the paper
// uses 1024) regardless of intermediate quality — matching the paper's
// decision not to drop under-performing engines the way OpenTuner's bandit
// does — and records its best-so-far trajectory for the Fig. 5 convergence
// curves.
package search

import (
	"math"
	"time"

	"repro/internal/tunespace"
)

// Objective evaluates one tuning vector and returns its runtime in seconds
// (lower is better). Each call counts against the engine's budget.
type Objective func(tunespace.Vector) float64

// BatchObjective evaluates a set of tuning vectors and returns their runtimes
// in input order (one value per vector). Implementations may evaluate the
// vectors concurrently; engines never submit a vector whose proposal depends
// on a sibling's result, so any schedule is legal. Each *vector* counts
// against the engine's budget exactly as with Objective.
type BatchObjective func([]tunespace.Vector) []float64

// SequentialBatch adapts a plain Objective into a BatchObjective that
// evaluates one vector at a time on the calling goroutine. It is the
// evaluation substrate behind every engine's Search method, which makes
// "sequential run" and "batched run with one worker" the same code path.
func SequentialBatch(obj Objective) BatchObjective {
	return func(vs []tunespace.Vector) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = obj(v)
		}
		return out
	}
}

// HistoryPoint records the best value known after a given number of
// evaluations.
type HistoryPoint struct {
	Evaluation int
	Value      float64
	Vector     tunespace.Vector
}

// Result is the outcome of one search run.
type Result struct {
	Engine      string
	Best        tunespace.Vector
	BestValue   float64
	Evaluations int
	// History holds the best-so-far after every evaluation (length equals
	// Evaluations); entry k is the state after k+1 evaluations.
	History []HistoryPoint
	Elapsed time.Duration
}

// BestAfter returns the best value known after n evaluations (the Fig. 5
// x-axis). It clamps n into [1, Evaluations].
func (r *Result) BestAfter(n int) float64 {
	if len(r.History) == 0 {
		return r.BestValue
	}
	if n < 1 {
		n = 1
	}
	if n > len(r.History) {
		n = len(r.History)
	}
	return r.History[n-1].Value
}

// Engine is an iterative search method over the tuning space.
type Engine interface {
	Name() string
	// Search minimizes obj over the space within the evaluation budget,
	// evaluating candidates one at a time on the calling goroutine.
	Search(space tunespace.Space, obj Objective, budget int, seed int64) Result
	// SearchBatch is Search with batched evaluation: the engine submits each
	// generation's (or chunk's) independent candidates as one BatchObjective
	// call, which may run them concurrently. Results are committed in
	// proposal order, so for a deterministic objective the returned Result
	// (Best, BestValue, History) is bit-identical to Search under the same
	// seed. Search is implemented as SearchBatch over SequentialBatch(obj).
	SearchBatch(space tunespace.Space, obj BatchObjective, budget int, seed int64) Result
}

// tracker wraps a batch objective with budget accounting and best-so-far
// history. Evaluations may be scheduled concurrently by the BatchObjective,
// but accounting is committed in proposal order — the deterministic-ordering
// layer that keeps batched and sequential runs bit-identical.
type tracker struct {
	batch   BatchObjective
	budget  int
	used    int
	best    tunespace.Vector
	bestVal float64
	history []HistoryPoint
	// memo avoids re-spending budget on duplicate vectors, the way
	// iterative compilers cache compiled variants.
	memo map[tunespace.Vector]float64
}

func newTracker(batch BatchObjective, budget int) *tracker {
	return &tracker{
		batch:   batch,
		budget:  budget,
		bestVal: inf(),
		history: make([]HistoryPoint, 0, budget),
		memo:    make(map[tunespace.Vector]float64, budget),
	}
}

func inf() float64 { return math.Inf(1) }

// exhausted reports whether the budget is spent.
func (t *tracker) exhausted() bool { return t.used >= t.budget }

// remaining returns how many evaluations the budget still allows. Engines
// use it to size a generation's batch — the same cut-off the sequential
// loops applied one proposal at a time.
func (t *tracker) remaining() int { return t.budget - t.used }

// evalBatch evaluates the proposals in vs, truncated to the remaining
// budget, and returns the runtime of each accepted proposal in order. Every
// accepted proposal charges one evaluation against the budget — the paper
// runs each engine for a fixed number of iterations, so proposing an
// already-seen configuration still costs an iteration (otherwise a converged
// engine that keeps re-proposing its optimum would loop forever). Only
// first-seen vectors reach the objective (the memo supplies the rest), and
// best/history bookkeeping is committed strictly in proposal order.
func (t *tracker) evalBatch(vs []tunespace.Vector) []float64 {
	n := min(len(vs), t.remaining())
	if n == 0 {
		return nil
	}
	vs = vs[:n]
	var fresh []tunespace.Vector
	for _, v := range vs {
		if _, seen := t.memo[v]; !seen {
			t.memo[v] = math.NaN() // placeholder: claims the slot for batch dedup
			fresh = append(fresh, v)
		}
	}
	if len(fresh) > 0 {
		vals := t.batch(fresh)
		for i, v := range fresh {
			t.memo[v] = vals[i]
		}
	}
	out := make([]float64, n)
	for i, v := range vs {
		val := t.memo[v]
		t.used++
		if val < t.bestVal {
			t.bestVal = val
			t.best = v
		}
		t.history = append(t.history, HistoryPoint{Evaluation: t.used, Value: t.bestVal, Vector: t.best})
		out[i] = val
	}
	return out
}

// eval evaluates a single vector — the path the inherently sequential
// steady-state GA uses, since each of its proposals depends on the previous
// result. It returns the
// runtime and false when the budget is exhausted.
func (t *tracker) eval(v tunespace.Vector) (float64, bool) {
	if t.exhausted() {
		if val, ok := t.memo[v]; ok {
			return val, true // answering from cache is free after exhaustion
		}
		return inf(), false
	}
	return t.evalBatch([]tunespace.Vector{v})[0], true
}

func (t *tracker) result(name string, start time.Time) Result {
	return Result{
		Engine:      name,
		Best:        t.best,
		BestValue:   t.bestVal,
		Evaluations: t.used,
		History:     t.history,
		Elapsed:     time.Since(start),
	}
}

// individual pairs a vector with its fitness.
type individual struct {
	v   tunespace.Vector
	fit float64
}

// Engines returns the four search baselines of Sec. VI-A in the order of
// Fig. 4's legend, ready to run.
func Engines() []Engine {
	return []Engine{
		NewGenerationalGA(),
		NewDifferentialEvolution(),
		NewEvolutionStrategy(),
		NewSteadyStateGA(),
	}
}
