package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/ranking"
	"repro/internal/search"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// Quality scoring follows the paper's evaluation on the simulator the model
// was trained against: the model's pick from the predefined set is compared
// with the set's oracle and with a generational GA given 1,024 evaluations,
// and Kendall τ compares the model's order with the simulated runtimes.
const (
	gaBudget  = 1024
	tauSubset = 256 // candidates per instance that τ ranks
)

// qualityRow is the raw material of one instance's quality figures.
type qualityRow struct {
	pick, oracle, ga float64   // simulated runtimes, seconds
	runtimes, scores []float64 // τ sample: simulated runtime and model score
}

// quality is the aggregate over a workload's instances.
type quality struct {
	tau, top1, speedupGA float64
}

// summarize averages τ and the top-1 share of the oracle, and takes the
// geometric mean of the speedup over the GA (a ratio).
func summarize(rows []qualityRow) quality {
	var q quality
	logSum := 0.0
	for _, r := range rows {
		neg := make([]float64, len(r.scores))
		for i, s := range r.scores {
			neg[i] = -s // higher score ranks first, like a shorter runtime
		}
		q.tau += ranking.KendallTau(r.runtimes, neg)
		q.top1 += r.oracle / r.pick
		logSum += math.Log(r.ga / r.pick)
	}
	n := float64(len(rows))
	return quality{tau: q.tau / n, top1: q.top1 / n, speedupGA: math.Exp(logSum / n)}
}

// scoreInstance computes one instance's quality row. The seed fixes the GA
// run and the τ candidate subset.
func scoreInstance(tu *core.Tuner, sim dataset.Evaluator, q stencil.Instance, seed int64) (qualityRow, error) {
	space := tunespace.NewSpace(q.Kernel.Dims())
	cands := space.Predefined()
	pick, err := tu.Best(q, cands)
	if err != nil {
		return qualityRow{}, err
	}
	_, oracle := core.OracleBest(sim, q, cands)
	ga := search.NewGenerationalGA().Search(space, core.ObjectiveFor(sim, q), gaBudget, seed)

	rng := rand.New(rand.NewSource(seed))
	subset := make([]tunespace.Vector, tauSubset)
	for i, j := range rng.Perm(len(cands))[:tauSubset] {
		subset[i] = cands[j]
	}
	scores, err := tu.Scores(q, subset)
	if err != nil {
		return qualityRow{}, err
	}
	runtimes := make([]float64, len(subset))
	for i, v := range subset {
		runtimes[i] = sim.Runtime(q, v)
	}
	return qualityRow{
		pick: sim.Runtime(q, pick), oracle: oracle, ga: sim.Runtime(q, ga.Best),
		runtimes: runtimes, scores: scores,
	}, nil
}

// scoreQuality scores the model on the instances; instance i seeds its GA
// run and τ subset with i+1. It depends only on the model and the
// instances, so it repeats exactly.
func scoreQuality(tu *core.Tuner, insts []stencil.Instance) (quality, error) {
	sim := perfmodel.New(machine.XeonE52680v3())
	rows := make([]qualityRow, len(insts))
	err := parallelFor(len(insts), func(i int) error {
		row, err := scoreInstance(tu, sim, insts[i], int64(i)+1)
		rows[i] = row
		return err
	})
	if err != nil {
		return quality{}, err
	}
	return summarize(rows), nil
}

// parallelFor runs fn(0..n-1) on GOMAXPROCS goroutines and returns the
// first error.
func parallelFor(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// verifyServed recomputes the model pick of every served request in-process
// on the trained model and returns the number that differ, with the first
// difference described.
func verifyServed(tu *core.Tuner, reqs []served) (int, string, error) {
	bad := make([]bool, len(reqs))
	err := parallelFor(len(reqs), func(i int) error {
		q := reqs[i].req.Inst
		best, err := tu.Best(q, tunespace.NewSpace(q.Kernel.Dims()).Predefined())
		if err != nil {
			return fmt.Errorf("in-process Best for %s: %w", reqs[i].req.Key, err)
		}
		bad[i] = !reqs[i].best.equals(best)
		return nil
	})
	mismatches, first := 0, ""
	for i, b := range bad {
		if b {
			if mismatches == 0 {
				first = fmt.Sprintf("%s: served best %+v differs from in-process core.Tuner.Best", reqs[i].req.Key, reqs[i].best)
			}
			mismatches++
		}
	}
	return mismatches, first, err
}
