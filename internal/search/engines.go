package search

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/tunespace"
)

// ---------------------------------------------------------------------------
// Generational GA

// GenerationalGA evolves a full population each generation with tournament
// selection, uniform crossover, mutation and elitism. It is the paper's base
// configuration (Fig. 4 speedups are relative to its 1024-evaluation result).
type GenerationalGA struct {
	PopSize      int
	TournamentK  int
	CrossoverP   float64
	MutationRate float64
	Elites       int
}

// NewGenerationalGA returns the engine with the standard configuration.
func NewGenerationalGA() *GenerationalGA {
	return &GenerationalGA{PopSize: 32, TournamentK: 3, CrossoverP: 0.9, MutationRate: 0.25, Elites: 2}
}

// Name implements Engine.
func (*GenerationalGA) Name() string { return "genetic algorithm" }

// Search implements Engine. A generation's children are bred against the
// frozen parent population; no proposal depends on a sibling's fitness.
func (g *GenerationalGA) Search(space tunespace.Space, obj Objective, budget int, seed int64) Result {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	t := newTracker(obj, budget)

	pop := initPopulation(space, rng, t, g.PopSize)
	for !t.exhausted() && len(pop) > 0 {
		sortByFitness(pop)
		next := make([]individual, 0, g.PopSize)
		// Elitism: carry the best individuals unchanged (no re-evaluation).
		for i := 0; i < g.Elites && i < len(pop); i++ {
			next = append(next, pop[i])
		}
		n := min(g.PopSize-len(next), t.remaining())
		if n <= 0 {
			break // degenerate config (elites fill the population)
		}
		for range n {
			a := tournament(pop, rng, g.TournamentK)
			b := tournament(pop, rng, g.TournamentK)
			child := a.v
			if rng.Float64() < g.CrossoverP {
				child = space.Crossover(rng, a.v, b.v)
			}
			child = space.Mutate(rng, child, g.MutationRate)
			fit, _ := t.eval(child)
			next = append(next, individual{child, fit})
		}
		pop = next
	}
	return t.result(g.Name(), start)
}

// ---------------------------------------------------------------------------
// Steady-state GA

// SteadyStateGA breeds one child at a time and replaces the current worst
// individual when the child improves on it — the "sGA" of Fig. 4. Each
// proposal depends on the previous replacement.
type SteadyStateGA struct {
	PopSize      int
	TournamentK  int
	MutationRate float64
}

// NewSteadyStateGA returns the engine with the standard configuration.
func NewSteadyStateGA() *SteadyStateGA {
	return &SteadyStateGA{PopSize: 32, TournamentK: 3, MutationRate: 0.25}
}

// Name implements Engine.
func (*SteadyStateGA) Name() string { return "sGA" }

// Search implements Engine.
func (g *SteadyStateGA) Search(space tunespace.Space, obj Objective, budget int, seed int64) Result {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	t := newTracker(obj, budget)

	pop := initPopulation(space, rng, t, g.PopSize)
	for !t.exhausted() && len(pop) >= 2 {
		a := tournament(pop, rng, g.TournamentK)
		b := tournament(pop, rng, g.TournamentK)
		child := space.Mutate(rng, space.Crossover(rng, a.v, b.v), g.MutationRate)
		fit, ok := t.eval(child)
		if !ok {
			break
		}
		// Replace the worst member if the child beats it.
		worst := 0
		for i := range pop {
			if pop[i].fit > pop[worst].fit {
				worst = i
			}
		}
		if fit < pop[worst].fit {
			pop[worst] = individual{child, fit}
		}
	}
	return t.result(g.Name(), start)
}

// ---------------------------------------------------------------------------
// Differential evolution

// DifferentialEvolution implements DE/rand/1/bin adapted to the integer
// tuning space via Space.Blend, in its textbook synchronous form: every
// trial of a generation is built against the same population snapshot, and
// selection is applied once the whole generation is evaluated.
type DifferentialEvolution struct {
	PopSize    int
	F          float64 // differential weight
	CrossoverP float64
}

// NewDifferentialEvolution returns the engine with the standard
// configuration (F retuned from 0.7 to 0.5 when the engine moved to
// synchronous generations; the lower differential weight recovers the
// faster convergence the asynchronous form got from immediate replacement).
func NewDifferentialEvolution() *DifferentialEvolution {
	return &DifferentialEvolution{PopSize: 32, F: 0.5, CrossoverP: 0.5}
}

// Name implements Engine.
func (*DifferentialEvolution) Name() string { return "differential evolution" }

// Search implements Engine.
func (de *DifferentialEvolution) Search(space tunespace.Space, obj Objective, budget int, seed int64) Result {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	t := newTracker(obj, budget)

	pop := initPopulation(space, rng, t, de.PopSize)
	for !t.exhausted() && len(pop) >= 4 {
		n := min(len(pop), t.remaining())
		trials := make([]tunespace.Vector, n)
		for i := range trials {
			// Pick three distinct partners from the generation snapshot.
			a, b, c := distinctThree(rng, len(pop), i)
			mutant := space.Blend(pop[a].v, pop[b].v, pop[c].v, de.F)
			trials[i] = binCrossover(rng, space, mutant, pop[i].v, de.CrossoverP)
		}
		for i, v := range trials {
			if fit, _ := t.eval(v); fit < pop[i].fit {
				pop[i] = individual{v, fit}
			}
		}
	}
	return t.result(de.Name(), start)
}

// binCrossover is DE's binomial crossover: each gene comes from the mutant
// with probability cr, and one uniformly chosen gene always does (so the
// trial never degenerates to a copy of the current individual).
func binCrossover(rng *rand.Rand, space tunespace.Space, mutant, cur tunespace.Vector, cr float64) tunespace.Vector {
	genes := [6]int{cur.Bx, cur.By, cur.Bz, cur.U, cur.C, cur.EffFuse()}
	mut := [6]int{mutant.Bx, mutant.By, mutant.Bz, mutant.U, mutant.C, mutant.EffFuse()}
	forced := rng.Intn(len(genes))
	for g := range genes {
		if g == forced || rng.Float64() < cr {
			genes[g] = mut[g]
		}
	}
	return space.Clamp(tunespace.Vector{Bx: genes[0], By: genes[1], Bz: genes[2], U: genes[3], C: genes[4], K: genes[5]})
}

// ---------------------------------------------------------------------------
// Evolution strategy

// EvolutionStrategy is a (μ+λ) ES: the μ best parents generate λ mutated
// offspring; parents and offspring compete for survival.
type EvolutionStrategy struct {
	Mu, Lambda   int
	MutationRate float64
}

// NewEvolutionStrategy returns the engine with the standard configuration.
func NewEvolutionStrategy() *EvolutionStrategy {
	return &EvolutionStrategy{Mu: 8, Lambda: 24, MutationRate: 0.4}
}

// Name implements Engine.
func (*EvolutionStrategy) Name() string { return "evolutive strategy" }

// Search implements Engine. All λ offspring of a generation mutate the same
// frozen parent set.
func (es *EvolutionStrategy) Search(space tunespace.Space, obj Objective, budget int, seed int64) Result {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	t := newTracker(obj, budget)

	pop := initPopulation(space, rng, t, es.Mu+es.Lambda)
	for !t.exhausted() && len(pop) > 0 {
		sortByFitness(pop)
		mu := min(es.Mu, len(pop))
		parents := pop[:mu]
		n := min(es.Lambda, t.remaining())
		next := append(make([]individual, 0, mu+n), parents...)
		for range n {
			p := parents[rng.Intn(len(parents))]
			child := space.Mutate(rng, p.v, es.MutationRate)
			fit, _ := t.eval(child)
			next = append(next, individual{child, fit})
		}
		pop = next
	}
	return t.result(es.Name(), start)
}

// ---------------------------------------------------------------------------
// Shared helpers

// initPopulation draws and evaluates the initial population of up to n
// random individuals, within the remaining budget.
func initPopulation(space tunespace.Space, rng *rand.Rand, t *tracker, n int) []individual {
	n = min(n, t.remaining())
	if n <= 0 {
		return nil
	}
	pop := make([]individual, n)
	for i := range pop {
		v := space.Random(rng)
		fit, _ := t.eval(v)
		pop[i] = individual{v, fit}
	}
	return pop
}

func sortByFitness(pop []individual) {
	sort.SliceStable(pop, func(a, b int) bool { return pop[a].fit < pop[b].fit })
}

func tournament(pop []individual, rng *rand.Rand, k int) individual {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[rng.Intn(len(pop))]
		if c.fit < best.fit {
			best = c
		}
	}
	return best
}

// distinctThree picks three distinct indices, all different from excluded.
func distinctThree(rng *rand.Rand, n, excluded int) (int, int, int) {
	pick := func(used ...int) int {
		for {
			v := rng.Intn(n)
			ok := v != excluded
			for _, u := range used {
				if v == u {
					ok = false
				}
			}
			if ok {
				return v
			}
		}
	}
	a := pick()
	b := pick(a)
	c := pick(a, b)
	return a, b, c
}
