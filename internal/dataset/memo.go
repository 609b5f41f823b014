package dataset

import (
	"sync"

	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// closer is the optional resource-release hook evaluators with worker pools
// implement; Memoized forwards it so stenciltune.CloseEvaluator keeps working
// through the cache.
type closer interface{ Close() }

// memoKey identifies one execution. Instance is comparable (kernel pointer +
// size), which is conservative: two distinct *Kernel values never share an
// entry even if their definitions coincide.
type memoKey struct {
	q stencil.Instance
	t tunespace.Vector
}

// Memoized wraps eval with a concurrency-safe cache keyed by (instance,
// tuning vector), so repeated vectors — across search generations, engines
// sharing an evaluator, or ranking/validation passes — are never
// re-simulated or re-measured. Two goroutines racing on the same uncached
// key may both evaluate it; with the deterministic evaluators that is only
// duplicated work, never divergent answers. Close forwards to the wrapped
// evaluator.
func Memoized(eval Evaluator) Evaluator {
	return &memoized{eval: eval, cache: make(map[memoKey]float64)}
}

type memoized struct {
	eval  Evaluator
	mu    sync.RWMutex
	cache map[memoKey]float64
}

// Runtime implements Evaluator.
func (m *memoized) Runtime(q stencil.Instance, t tunespace.Vector) float64 {
	k := memoKey{q, t}
	m.mu.RLock()
	val, ok := m.cache[k]
	m.mu.RUnlock()
	if ok {
		return val
	}
	val = m.eval.Runtime(q, t)
	m.mu.Lock()
	m.cache[k] = val
	m.mu.Unlock()
	return val
}

// Close forwards to the wrapped evaluator when it holds resources.
func (m *memoized) Close() {
	if c, ok := m.eval.(closer); ok {
		c.Close()
	}
}
