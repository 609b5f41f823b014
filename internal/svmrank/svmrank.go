// Package svmrank is a from-scratch implementation of the ordinal-regression
// (ranking) support vector machine of Section IV of the paper, following the
// formulation of Eq. (3): a linear scoring function w is trained on pairwise
// preference constraints generated *within* each query group (stencil
// instance), so that better-performing executions score higher:
//
//	w·x_i ≥ w·x_j + 1 − ξ_ij   for every within-query pair with y_i < y_j
//	min  ½‖w‖² + C·Σ ξ_ij
//
// where y is the measured runtime (smaller is better) and C the slack cost of
// one pair: the sum is not divided by the pair or query count. The solver is
// dual coordinate descent, the standard exact solver for the L1-hinge linear
// SVM. It operates on implicit difference vectors: pairs are stored as index
// pairs, and Train first packs every example's components into one arena.
// The encoding holds no component that an instance's executions all share,
// since such a component would cancel in every within-query pair, so the
// solver needs no filter for components no pair can move: the default
// 3,840-point set has about 31 components per vector, over all 88 encoded
// indices of the 441. The result is bit-identical to running on the full
// sparse vectors (see arena).
package svmrank

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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

// PairStrategy selects how within-query preference pairs are generated
// (compared in BenchmarkAblationPairStrategy).
type PairStrategy int

const (
	// FullPairs generates every ordered pair within a query: O(E²) pairs.
	FullPairs PairStrategy = iota
	// AdjacentPairs sorts each query by runtime and pairs each example
	// with its Window successors: O(E·Window) pairs. This is the default:
	// it preserves the full ordering information transitively at a
	// fraction of the cost.
	AdjacentPairs
)

func (s PairStrategy) String() string {
	switch s {
	case FullPairs:
		return "full"
	case AdjacentPairs:
		return "adjacent"
	default:
		return "?"
	}
}

// PairOptions configures pair generation.
type PairOptions struct {
	Strategy PairStrategy
	Window   int // AdjacentPairs: successors per example (default 4)
}

// GeneratePairs builds the preference pairs of Eq. (3): only executions of
// the same query are compared; ties generate no pair.
func GeneratePairs(d *Dataset, opt PairOptions) []Pair {
	if opt.Window <= 0 {
		opt.Window = 4
	}

	groups := d.Groups()
	var pairs []Pair
	for _, q := range d.Queries() {
		idx := groups[q]
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
		}
	}
	return pairs
}

// Options configures training.
type Options struct {
	// C is the slack cost of one pair in the objective ½‖w‖² + C·Σ ξ_ij;
	// it must be positive.
	C float64
	// Epochs bounds the number of passes over the pairs (default 50).
	Epochs int
	// Pairs configures pair generation.
	Pairs PairOptions
	// Seed drives shuffling.
	Seed int64
}

// tol is the projected-gradient stopping tolerance: an epoch whose largest
// violation stays below it ends training.
const tol = 1e-4

func (o Options) withDefaults() Options {
	if o.Epochs == 0 {
		o.Epochs = 50
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
// only reads W, so one model may score and batch-score from any number
// of goroutines concurrently. (Mutating W while scoring is the caller's
// race.)
type Model struct {
	W []float64
	// C records the regularization used, for provenance.
	C float64
}

// Score returns the ranking score of a feature vector.
func (m *Model) Score(x feature.Vector) float64 { return x.Dot(m.W) }

// ScoreBatch scores every vector, in input order.
func (m *Model) ScoreBatch(xs []feature.Vector) []float64 {
	scores := make([]float64, len(xs))
	for i, x := range xs {
		scores[i] = x.Dot(m.W)
	}
	return scores
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

// Top selects the k best of a stream of scores that arrives in index order,
// in slices of any length, with a k-slot insertion buffer instead of a full
// sort: fed the scores of a set, in one slice or many, its Indices are the
// first min(k, len) entries of Order's — the k best indices, descending
// score, equal scores in input order. A score enters the buffer only if it
// strictly beats the current k-th best, so an equal later score never
// displaces an earlier one.
type Top struct {
	k     int
	next  int       // the index of the next score
	idx   []int     // the selected indices, best first
	score []float64 // their scores
}

// NewTop returns an empty selector of the k best scores; its buffers hold k
// entries.
func NewTop(k int) *Top {
	k = max(0, k)
	return &Top{k: k, idx: make([]int, 0, k), score: make([]float64, 0, k)}
}

// Add feeds the scores of the next len(scores) indices.
func (t *Top) Add(scores []float64) {
	for i, s := range scores {
		j := len(t.idx)
		if j < t.k {
			t.idx, t.score = append(t.idx, 0), append(t.score, 0)
		} else if j > 0 && s > t.score[j-1] {
			j--
		} else {
			continue
		}
		for ; j > 0 && s > t.score[j-1]; j-- {
			t.idx[j], t.score[j] = t.idx[j-1], t.score[j-1]
		}
		t.idx[j], t.score[j] = t.next+i, s
	}
	t.next += len(scores)
}

// Indices returns the selected indices, best first.
func (t *Top) Indices() []int { return t.idx }

// ArgBestBatch returns the index of the highest-scoring vector without
// sorting (-1 for empty input); ties keep the earliest index, matching
// Order's first entry.
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

	start := time.Now()
	a := pack(d)
	w, epochs := trainDCD(d, a, pairs, opt)

	stats := Stats{
		Pairs:     len(pairs),
		Epochs:    epochs,
		TrainTime: time.Since(start),
	}
	var reg float64
	for _, v := range w[:feature.Dim] {
		reg += v * v
	}
	obj := 0.5 * reg
	for _, p := range pairs {
		margin := a.diffDot(w, p.I, p.J)
		if margin < 1 {
			stats.Violations++
			obj += opt.C * (1 - margin)
		}
	}
	stats.Objective = obj
	return &Model{W: slices.Clone(w[:feature.Dim]), C: opt.C}, stats, nil
}

// arena is the training set packed for the solver: each example's
// components below feature.Dim, in ascending index order, with the feature
// index as a uint16 slot of the solver's weight vector. Indices at or past
// feature.Dim are dropped, as Dot drops them.
//
// The arena holds exactly the components Dot reads, in Dot's order, and
// diffDot and addDiff do the oracle's arithmetic on them in the oracle's
// order, so every margin, α step, weight, the objective and the violation
// count are those of the full sparse vectors. A weight no component reaches
// stays +0, as the oracle's does.
type arena struct {
	off []int32   // example e's components are idx/val[off[e]:off[e+1]]
	idx []uint16  // feature index, ascending per example
	val []float64 // component value
}

// slots is the capacity of the solver's weight vector. Every feature index
// fits a slot: the blank array below fails to compile if Dim outgrows it.
const slots = 1 << 16

var _ [slots - feature.Dim]struct{}

// weights is the solver's weight vector, slots 0..feature.Dim-1 in use. A
// uint16 slot indexes it with no bounds check.
type weights [slots]float64

// pack builds the arena of d.
func pack(d *Dataset) *arena {
	a := &arena{off: make([]int32, 1, d.Len()+1)}
	for _, e := range d.Examples {
		for i, k := range e.X.Idx {
			if k >= feature.Dim {
				break
			}
			a.idx = append(a.idx, uint16(k))
			a.val = append(a.val, e.X.Val[i])
		}
		a.off = append(a.off, int32(len(a.idx)))
	}
	return a
}

// example returns example e's packed components.
func (a *arena) example(e int) ([]uint16, []float64) {
	lo, hi := a.off[e], a.off[e+1]
	idx := a.idx[lo:hi]
	return idx, a.val[lo:hi][:len(idx)]
}

// diffDot returns (x_i − x_j)·w as Dot computes it: the two dot products are
// summed separately, each in ascending index order, and then subtracted.
// One loop runs both sums over the members' common length, so the two
// independent chains of additions overlap.
func (a *arena) diffDot(w *weights, i, j int) float64 {
	_ = w[0] // one nil check here, none in the loops
	xi, xv := a.example(i)
	yi, yv := a.example(j)
	n := min(len(xi), len(yi))
	var sx, sy float64
	{
		xi, xv, yi, yv := xi[:n], xv[:n], yi[:n], yv[:n]
		for k, xk := range xi {
			// The conversions round each product on its own, as Dot
			// does, so that no platform fuses it into the addition.
			sx += float64(xv[k] * w[xk])
			sy += float64(yv[k] * w[yi[k]])
		}
	}
	xi, xv = xi[n:], xv[n:]
	for k, xk := range xi {
		sx += float64(xv[k] * w[xk])
	}
	yi, yv = yi[n:], yv[n:]
	for k, yk := range yi {
		sy += float64(yv[k] * w[yk])
	}
	return sx - sy
}

// addDiff accumulates scale·(x_i − x_j) into w: scale·x_i first, then
// −scale·x_j.
func (a *arena) addDiff(w *weights, i, j int, scale float64) {
	_ = w[0] // one nil check here, none in the loops
	xi, xv := a.example(i)
	for k, xk := range xi {
		w[xk] += scale * xv[k]
	}
	yi, yv := a.example(j)
	neg := -scale
	for k, yk := range yi {
		w[yk] += neg * yv[k]
	}
}

// trainDCD runs dual coordinate descent on the pairwise L1-hinge dual:
// each pair p has a dual variable α_p ∈ [0, U] with U = C, the per-pair slack
// cost; w = Σ α_p (x_i − x_j).
func trainDCD(d *Dataset, a *arena, pairs []Pair, opt Options) (*weights, int) {
	U := opt.C
	w := new(weights)
	alpha := make([]float64, len(pairs))

	// Precompute the diagonal Q_pp = ‖x_i − x_j‖² over the full vectors.
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
			g := a.diffDot(w, pr.I, pr.J) - 1 // gradient of dual wrt α_p

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
			a.addDiff(w, pr.I, pr.J, na-old)
		}
		if maxViolation < tol {
			epoch++
			break
		}
	}
	return w, epoch
}
