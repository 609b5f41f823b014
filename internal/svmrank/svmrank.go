// Package svmrank is a from-scratch implementation of the ordinal-regression
// (ranking) support vector machine of Section IV of the paper, following the
// formulation of Eq. (3): a linear scoring function w is trained on pairwise
// preference constraints generated *within* each query group (stencil
// instance), so that better-performing executions score higher:
//
//	w·x_i ≥ w·x_j + 1 − ξ_ij   for every within-query pair with y_i < y_j
//	min  ½‖w‖² + (C/m′)·Σ ξ_ij
//
// where y is the measured runtime (smaller is better) and m′ the number of
// pairs. Two solvers are provided: dual coordinate descent (the default; the
// standard exact solver for the L1-hinge linear SVM) and averaged stochastic
// subgradient descent (for the ablation study). Both operate on implicit
// difference vectors — pairs are stored as index pairs and all algebra runs
// on the sparse feature vectors directly.
package svmrank

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/feature"
)

// Example is one stencil execution in the training set: its feature vector,
// its query (the stencil instance it belongs to) and its runtime.
type Example struct {
	Query string
	X     feature.Vector
	Y     float64 // runtime in seconds; smaller is better
}

// Dataset is an ordered collection of examples. Order is preserved so pair
// generation is deterministic.
type Dataset struct {
	Examples []Example
}

// Add appends an example.
func (d *Dataset) Add(e Example) { d.Examples = append(d.Examples, e) }

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Examples) }

// Queries returns the distinct query ids in first-appearance order.
func (d *Dataset) Queries() []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range d.Examples {
		if !seen[e.Query] {
			seen[e.Query] = true
			out = append(out, e.Query)
		}
	}
	return out
}

// Groups returns example indices per query, in first-appearance order.
func (d *Dataset) Groups() map[string][]int {
	g := make(map[string][]int)
	for i, e := range d.Examples {
		g[e.Query] = append(g[e.Query], i)
	}
	return g
}

// Pair is a preference constraint: example I should outrank example J
// (y_I < y_J).
type Pair struct {
	I, J int
}

// PairStrategy selects how within-query preference pairs are generated; the
// choice is one of the ablation dimensions in DESIGN.md §4.
type PairStrategy int

const (
	// FullPairs generates every ordered pair within a query: O(E²) pairs.
	FullPairs PairStrategy = iota
	// AdjacentPairs sorts each query by runtime and pairs each example
	// with its Window successors: O(E·Window) pairs. This is the default:
	// it preserves the full ordering information transitively at a
	// fraction of the cost.
	AdjacentPairs
	// CappedPairs draws at most MaxPerQuery random full pairs per query.
	CappedPairs
)

func (s PairStrategy) String() string {
	switch s {
	case FullPairs:
		return "full"
	case AdjacentPairs:
		return "adjacent"
	case CappedPairs:
		return "capped"
	default:
		return "?"
	}
}

// PairOptions configures pair generation.
type PairOptions struct {
	Strategy    PairStrategy
	Window      int // AdjacentPairs: successors per example (default 4)
	MaxPerQuery int // CappedPairs: pair budget per query (default 256)
	Seed        int64
}

// GeneratePairs builds the preference pairs of Eq. (3): only executions of
// the same query are compared; ties generate no pair.
func GeneratePairs(d *Dataset, opt PairOptions) []Pair {
	if opt.Window <= 0 {
		opt.Window = 4
	}
	if opt.MaxPerQuery <= 0 {
		opt.MaxPerQuery = 256
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	var pairs []Pair
	for _, q := range d.Queries() {
		idx := append([]int(nil), d.Groups()[q]...)
		// Sort group by runtime ascending (best first).
		sort.SliceStable(idx, func(a, b int) bool {
			return d.Examples[idx[a]].Y < d.Examples[idx[b]].Y
		})
		switch opt.Strategy {
		case FullPairs:
			for a := 0; a < len(idx); a++ {
				for b := a + 1; b < len(idx); b++ {
					if d.Examples[idx[a]].Y < d.Examples[idx[b]].Y {
						pairs = append(pairs, Pair{idx[a], idx[b]})
					}
				}
			}
		case AdjacentPairs:
			for a := 0; a < len(idx); a++ {
				for w := 1; w <= opt.Window && a+w < len(idx); w++ {
					if d.Examples[idx[a]].Y < d.Examples[idx[a+w]].Y {
						pairs = append(pairs, Pair{idx[a], idx[a+w]})
					}
				}
			}
		case CappedPairs:
			n := len(idx)
			budget := opt.MaxPerQuery
			for tries := 0; budget > 0 && tries < 20*opt.MaxPerQuery && n >= 2; tries++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				if d.Examples[idx[a]].Y < d.Examples[idx[b]].Y {
					pairs = append(pairs, Pair{idx[a], idx[b]})
					budget--
				}
			}
		}
	}
	return pairs
}

// Solver selects the optimization algorithm.
type Solver int

const (
	// DualCoordinateDescent is the exact L1-hinge solver (default).
	DualCoordinateDescent Solver = iota
	// SGD is averaged stochastic subgradient descent.
	SGD
)

func (s Solver) String() string {
	switch s {
	case DualCoordinateDescent:
		return "dcd"
	case SGD:
		return "sgd"
	default:
		return "?"
	}
}

// Options configures training.
type Options struct {
	// C is the regularization trade-off of Eq. (3); the paper uses 0.01.
	C float64
	// NormalizeC divides C by the number of queries, matching SVM-Rank's
	// objective scaling (Joachims' svm_rank divides the -c value by the
	// query count). Default true.
	NormalizeC *bool
	// Epochs bounds the number of passes over the pairs (default 50).
	Epochs int
	// Tol is the duality-gap style stopping tolerance for DCD (default 1e-4).
	Tol float64
	// Solver selects DCD (default) or SGD.
	Solver Solver
	// Pairs configures pair generation.
	Pairs PairOptions
	// Seed drives shuffling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.C == 0 {
		o.C = 0.01
	}
	if o.Epochs == 0 {
		o.Epochs = 50
	}
	if o.Tol == 0 {
		o.Tol = 1e-4
	}
	if o.NormalizeC == nil {
		t := true
		o.NormalizeC = &t
	}
	return o
}

// Stats reports what training did.
type Stats struct {
	Pairs      int
	Epochs     int
	Violations int // margin violations at the end of training
	Objective  float64
	TrainTime  time.Duration
}

// Model is the learned linear ranking function r(q,t) = w·φ(q,t); *higher*
// scores rank better (Sec. IV-C's projection onto w).
//
// A Model is read-only after Train or a store load returns: every method
// only reads W, so one model may score, rank and batch-score from any number
// of goroutines concurrently. (Mutating W while scoring is the caller's
// race.)
type Model struct {
	W []float64
	// C records the regularization used, for provenance.
	C float64
}

// Score returns the ranking score of a feature vector.
func (m *Model) Score(x feature.Vector) float64 { return x.Dot(m.W) }

// scoreParallelThreshold is the candidate count above which ScoreBatch fans
// out; below it the goroutine handoff costs more than the dot products.
const scoreParallelThreshold = 4096

// ScoreBatch scores every vector, in input order. Large batches (the 8640
// predefined 3-D configurations, for instance) are scored on GOMAXPROCS
// goroutines; each score depends only on its own input, so the output is
// identical to a sequential loop.
func (m *Model) ScoreBatch(xs []feature.Vector) []float64 {
	scores := make([]float64, len(xs))
	workers := runtime.GOMAXPROCS(0)
	if len(xs) < scoreParallelThreshold || workers == 1 {
		for i, x := range xs {
			scores[i] = x.Dot(m.W)
		}
		return scores
	}
	chunk := (len(xs) + workers - 1) / workers
	var wg sync.WaitGroup
	for s := 0; s < len(xs); s += chunk {
		e := min(s+chunk, len(xs))
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			for i := s; i < e; i++ {
				scores[i] = xs[i].Dot(m.W)
			}
		}(s, e)
	}
	wg.Wait()
	return scores
}

// Rank returns the indices of xs ordered best-first (descending score).
// Deterministic: equal scores keep input order.
func (m *Model) Rank(xs []feature.Vector) []int {
	order, _ := m.RankWithScores(xs)
	return order
}

// RankWithScores is Rank returning also the score of every input vector
// (index-aligned with xs, not with the permutation), so consumers that need
// both — the serving API's scored rankings — pay one ScoreBatch pass.
func (m *Model) RankWithScores(xs []feature.Vector) ([]int, []float64) {
	scores := m.ScoreBatch(xs)
	return Order(scores), scores
}

// Order returns the indices of scores ordered best-first (descending
// score); equal scores keep input order. Breaking ties on the index makes
// the order total, so an unstable sort of the index slice yields exactly
// the stable order without the reflection-based swapper sort.SliceStable
// pays per move.
func Order(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch sa, sb := scores[a], scores[b]; {
		case sa > sb:
			return -1
		case sb > sa:
			return 1
		}
		return cmp.Compare(a, b)
	})
	return idx
}

// TopK returns the first min(k, len(scores)) entries of Order(scores) —
// the k best indices, descending score, equal scores in input order — in
// one pass over the scores with a k-slot insertion buffer instead of a
// full sort. A score enters the buffer only if it strictly beats the
// current k-th best, so an equal later score never displaces an earlier
// one.
func TopK(scores []float64, k int) []int {
	k = max(0, min(k, len(scores)))
	top := make([]int, 0, k)
	if k == 0 {
		return top
	}
	for i, s := range scores {
		j := len(top)
		if j < k {
			top = top[:j+1]
		} else if s > scores[top[k-1]] {
			j = k - 1
		} else {
			continue
		}
		for ; j > 0 && s > scores[top[j-1]]; j-- {
			top[j] = top[j-1]
		}
		top[j] = i
	}
	return top
}

// ArgBestBatch returns the index of the highest-scoring vector without
// sorting (-1 for empty input); ties keep the earliest index, matching
// Rank's first entry.
func (m *Model) ArgBestBatch(xs []feature.Vector) int { return ArgMax(m.ScoreBatch(xs)) }

// ArgMax returns the index of the highest score (-1 for empty input); ties
// keep the earliest index, matching Order's first entry.
func ArgMax(scores []float64) int {
	best, bestScore := -1, math.Inf(-1)
	for i, s := range scores {
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Best returns the index of the top-ranked vector (-1 for empty input).
func (m *Model) Best(xs []feature.Vector) int { return m.ArgBestBatch(xs) }

// Train fits a ranking model on the dataset.
func Train(d *Dataset, opt Options) (*Model, Stats, error) {
	opt = opt.withDefaults()
	if d.Len() == 0 {
		return nil, Stats{}, errors.New("svmrank: empty dataset")
	}
	if opt.C <= 0 {
		return nil, Stats{}, fmt.Errorf("svmrank: C = %v must be positive", opt.C)
	}
	pairs := GeneratePairs(d, opt.Pairs)
	if len(pairs) == 0 {
		return nil, Stats{}, errors.New("svmrank: no orderable pairs (all queries degenerate)")
	}

	perPair := opt.C
	if *opt.NormalizeC {
		perPair = opt.C / float64(len(d.Queries()))
	}

	start := time.Now()
	var w []float64
	var epochs int
	switch opt.Solver {
	case SGD:
		w, epochs = trainSGD(d, pairs, perPair, opt)
	default:
		w, epochs = trainDCD(d, pairs, perPair, opt)
	}
	m := &Model{W: w, C: opt.C}

	stats := Stats{
		Pairs:     len(pairs),
		Epochs:    epochs,
		TrainTime: time.Since(start),
	}
	var reg float64
	for _, v := range w {
		reg += v * v
	}
	obj := 0.5 * reg
	for _, p := range pairs {
		margin := feature.DiffDot(w, d.Examples[p.I].X, d.Examples[p.J].X)
		if margin < 1 {
			stats.Violations++
			obj += perPair * (1 - margin)
		}
	}
	stats.Objective = obj
	return m, stats, nil
}

// trainDCD runs dual coordinate descent on the pairwise L1-hinge dual:
// each pair p has a dual variable α_p ∈ [0, U] with U the per-pair slack
// cost; w = Σ α_p (x_i − x_j).
func trainDCD(d *Dataset, pairs []Pair, perPair float64, opt Options) ([]float64, int) {
	U := perPair
	w := make([]float64, feature.Dim)
	alpha := make([]float64, len(pairs))

	// Precompute the diagonal Q_pp = ‖x_i − x_j‖².
	qdiag := make([]float64, len(pairs))
	for p, pr := range pairs {
		qdiag[p] = feature.DiffSquaredNorm(d.Examples[pr.I].X, d.Examples[pr.J].X)
		if qdiag[p] == 0 {
			qdiag[p] = math.Inf(1) // identical encodings: pair carries no signal
		}
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}

	epoch := 0
	for ; epoch < opt.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		maxViolation := 0.0
		for _, p := range order {
			pr := pairs[p]
			xi, xj := d.Examples[pr.I].X, d.Examples[pr.J].X
			g := feature.DiffDot(w, xi, xj) - 1 // gradient of dual wrt α_p

			// Projected gradient for the box [0, U].
			pg := g
			if alpha[p] == 0 && g > 0 {
				pg = 0
			} else if alpha[p] == U && g < 0 {
				pg = 0
			}
			if math.Abs(pg) > maxViolation {
				maxViolation = math.Abs(pg)
			}
			if pg == 0 || math.IsInf(qdiag[p], 1) {
				continue
			}
			old := alpha[p]
			na := old - g/qdiag[p]
			if na < 0 {
				na = 0
			} else if na > U {
				na = U
			}
			if na == old {
				continue
			}
			alpha[p] = na
			feature.AddDiffInto(w, xi, xj, na-old)
		}
		if maxViolation < opt.Tol {
			epoch++
			break
		}
	}
	return w, epoch
}

// trainSGD runs averaged stochastic subgradient descent on the primal
// objective F(w) = ½‖w‖² + perPair·Σ_p hinge_p. A uniformly drawn pair p
// gives the unbiased estimate ½‖w‖² + perPair·m·hinge_p; the ½‖w‖² term
// makes F 1-strongly convex, so the classic 1/(t+1) step size applies.
func trainSGD(d *Dataset, pairs []Pair, perPair float64, opt Options) ([]float64, int) {
	m := float64(len(pairs))
	w := make([]float64, feature.Dim)
	avg := make([]float64, feature.Dim)
	rng := rand.New(rand.NewSource(opt.Seed))

	t := 0
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		for range pairs {
			t++
			p := pairs[rng.Intn(len(pairs))]
			eta := 1 / float64(t+1)
			xi, xj := d.Examples[p.I].X, d.Examples[p.J].X
			margin := feature.DiffDot(w, xi, xj)
			// Gradient step: shrink from the regularizer, then the hinge
			// subgradient if the pair violates the margin.
			shrink := 1 - eta
			for k := range w {
				w[k] *= shrink
			}
			if margin < 1 {
				feature.AddDiffInto(w, xi, xj, eta*perPair*m)
			}
			// Running average of iterates.
			for k := range w {
				avg[k] += (w[k] - avg[k]) / float64(t)
			}
		}
	}
	return avg, opt.Epochs
}
