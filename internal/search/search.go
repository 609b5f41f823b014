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
}

// tracker wraps an objective with budget accounting and best-so-far
// history. It calls the objective once for each first-seen vector, in
// proposal order.
type tracker struct {
	obj     Objective
	budget  int
	used    int
	best    tunespace.Vector
	bestVal float64
	history []HistoryPoint
	// memo avoids re-spending budget on duplicate vectors, the way
	// iterative compilers cache compiled variants.
	memo map[tunespace.Vector]float64
}

func newTracker(obj Objective, budget int) *tracker {
	return &tracker{
		obj:     obj,
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
// use it to size a generation, so that every proposal of it is charged.
func (t *tracker) remaining() int { return t.budget - t.used }

// eval charges one evaluation for v and returns its runtime, or false when
// the budget is exhausted. The paper runs each engine for a fixed number of
// iterations, so proposing an already-seen configuration still costs an
// iteration (otherwise a converged engine that keeps re-proposing its
// optimum would loop forever); only first-seen vectors reach the objective,
// and the memo supplies the rest.
func (t *tracker) eval(v tunespace.Vector) (float64, bool) {
	val, seen := t.memo[v]
	if t.exhausted() {
		if seen {
			return val, true // answering from cache is free after exhaustion
		}
		return inf(), false
	}
	if !seen {
		val = t.obj(v)
		t.memo[v] = val
	}
	t.used++
	if val < t.bestVal {
		t.bestVal = val
		t.best = v
	}
	t.history = append(t.history, HistoryPoint{Evaluation: t.used, Value: t.bestVal, Vector: t.best})
	return val, true
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
