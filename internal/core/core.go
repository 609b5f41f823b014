// Package core is the autotuner of the paper: given a trained
// ordinal-regression model, it ranks candidate tuning vectors for an unseen
// stencil instance without executing them, and returns the top-ranked one
// (Sec. V-C). It supports the standalone mode evaluated in Sec. VI-A (rank a
// predefined configuration set) and the search-accelerator coupling sketched
// in the paper's future work (rank-filter candidates, then spend a small
// measurement budget on the top of the ranking).
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/search"
	"repro/internal/stencil"
	"repro/internal/svmrank"
	"repro/internal/tunespace"
)

// Tuner ranks tuning vectors for stencil instances with a trained model.
type Tuner struct {
	Model   *svmrank.Model
	Encoder *feature.Encoder
}

// New returns a tuner around a trained model with the default encoder.
func New(model *svmrank.Model) *Tuner {
	return &Tuner{Model: model, Encoder: feature.NewEncoder()}
}

// Scores returns the model score of every candidate (higher ranks better).
// It checks the model and the instance, then scores each candidate on the
// caller's goroutine from one encoding plan: what the encoding reads of the
// instance is computed once, and each candidate adds only the products of
// its own components. No feature vector is materialised, and every score is
// bit-identical to Model.Score(Encoder.Encode(q, cand)).
//
// cands must be valid for q's dimensionality (tunespace.Vector.Validate):
// the predefined sets are valid by construction, and vectors from outside
// the program are validated where they enter it (wire.Tunings).
func (t *Tuner) Scores(q stencil.Instance, cands []tunespace.Vector) ([]float64, error) {
	p, err := t.plan(q, cands)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(cands))
	p.ScoreInto(out, t.Model.W, cands)
	return out, nil
}

// plan checks the model, the instance and the candidate set, and returns
// the instance's encoding plan.
func (t *Tuner) plan(q stencil.Instance, cands []tunespace.Vector) (*feature.Plan, error) {
	if t.Model == nil {
		return nil, errors.New("core: tuner has no model")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, errors.New("core: empty candidate set")
	}
	return t.Encoder.Plan(q), nil
}

// errUnscored reports a set none of whose scores is a number above −Inf:
// finite weights large enough to overflow a score to −Inf, or to NaN.
var errUnscored = errors.New("core: no candidate scores above -Inf (the model's weights overflow)")

// Rank returns the candidate indices ordered best-first according to the
// model, together with every candidate's score (index-aligned with cands).
// No execution happens; equal scores keep input order.
func (t *Tuner) Rank(q stencil.Instance, cands []tunespace.Vector) ([]int, []float64, error) {
	scores, err := t.Scores(q, cands)
	if err != nil {
		return nil, nil, err
	}
	return svmrank.Order(scores), scores, nil
}

// Best returns the top-ranked candidate: svmrank.ArgMax of the scores, so
// ties resolve to the earliest candidate, exactly like Rank's first entry.
// It scores exactly only the candidates that can still win
// (feature.Plan.Best): a first pass bounds each run of one tile shape and
// depth from its group sums, and a second scores the run of the highest
// bound and then only the runs whose bound reaches the best score found.
// On the predefined sets, full products of tile shapes × u × c, a bound is
// its run's best score up to a rounding margin, so under a trained model
// one run of 16 of the 1,600 or 8,640 candidates is scored exactly. It
// fails when no score is a number above −Inf.
func (t *Tuner) Best(q stencil.Instance, cands []tunespace.Vector) (tunespace.Vector, error) {
	p, err := t.plan(q, cands)
	if err != nil {
		return tunespace.Vector{}, err
	}
	best := p.Best(t.Model.W, cands)
	if best < 0 {
		return tunespace.Vector{}, errUnscored
	}
	return cands[best], nil
}

// TunePredefined runs the standalone mode of Sec. VI-A: rank the
// hierarchically-sampled power-of-two predefined set for the instance's
// dimensionality (1600 configurations for 2-D, 8640 for 3-D) and return the
// top-ranked vector together with the ranking time. The set follows q's
// size; Scores rejects a kernel of the other dimensionality.
func (t *Tuner) TunePredefined(q stencil.Instance) (tunespace.Vector, time.Duration, error) {
	cands := tunespace.NewSpace(q.Size.Dims()).Predefined()
	start := time.Now()
	best, err := t.Best(q, cands)
	return best, time.Since(start), err
}

// HybridResult is the outcome of the rank-then-measure coupling.
type HybridResult struct {
	Best        tunespace.Vector
	BestValue   float64
	Evaluations int // objective calls actually spent
	RankedFrom  int // candidate-set size that was ranked for free
	// ModelBest is the model's unmeasured top-1: the head of the ranking,
	// the same vector Best returns for the candidate set.
	ModelBest tunespace.Vector
	// RankTime is the time spent scoring the set and selecting its top-k,
	// measurement excluded.
	RankTime time.Duration
}

// HybridTopK implements the paper's future-work coupling of the ranking
// model with iterative compilation: score the full candidate set without
// executing anything, then spend the measurement budget only on the top-k
// ranked candidates and return the measured best. The top-k is selected
// while the set is scored a chunk at a time (svmrank.Top), never by
// sorting the whole set or holding a score per candidate, and is exactly
// the head of Rank's order. With k ≪ |cands| this turns a 1024-evaluation
// search into a handful of runs. The k candidates are evaluated in rank
// order, and the first strict minimum wins. It fails when no score is a
// number above −Inf.
func (t *Tuner) HybridTopK(q stencil.Instance, cands []tunespace.Vector, k int, obj search.Objective) (HybridResult, error) {
	if k <= 0 {
		return HybridResult{}, fmt.Errorf("core: k = %d must be positive", k)
	}
	start := time.Now()
	p, err := t.plan(q, cands)
	if err != nil {
		return HybridResult{}, err
	}
	sel := svmrank.NewTop(min(k, len(cands)))
	scored := false
	p.ScoreChunks(t.Model.W, cands, func(_ int, scores []float64) {
		sel.Add(scores)
		scored = scored || svmrank.ArgMax(scores) >= 0
	})
	if !scored {
		return HybridResult{}, errUnscored
	}
	order := sel.Indices()
	res := HybridResult{RankedFrom: len(cands), ModelBest: cands[order[0]], RankTime: time.Since(start)}
	res.Evaluations = len(order)
	for i, o := range order {
		if val := obj(cands[o]); i == 0 || val < res.BestValue {
			res.Best = cands[o]
			res.BestValue = val
		}
	}
	return res, nil
}

// Evaluator adapters -------------------------------------------------------

// ObjectiveFor wraps an Evaluator into a search objective for one instance.
func ObjectiveFor(eval dataset.Evaluator, q stencil.Instance) search.Objective {
	return func(v tunespace.Vector) float64 { return eval.Runtime(q, v) }
}

// TopOfRanking is a convenience for analyses: it returns the candidates
// sorted best-first according to the model (the full permutation applied).
func (t *Tuner) TopOfRanking(q stencil.Instance, cands []tunespace.Vector) ([]tunespace.Vector, error) {
	order, _, err := t.Rank(q, cands)
	if err != nil {
		return nil, err
	}
	out := make([]tunespace.Vector, len(order))
	for i, o := range order {
		out[i] = cands[o]
	}
	return out, nil
}

// OracleBest returns the truly best candidate under the evaluator — the
// bound the paper notes standalone tuning cannot exceed ("the performance we
// obtain ... is bound by the solution performing the best in the pre-defined
// set"). Used by the experiment harness and tests.
func OracleBest(eval dataset.Evaluator, q stencil.Instance, cands []tunespace.Vector) (tunespace.Vector, float64) {
	type scored struct {
		v tunespace.Vector
		r float64
	}
	best := scored{r: -1}
	for _, v := range cands {
		r := eval.Runtime(q, v)
		if best.r < 0 || r < best.r {
			best = scored{v, r}
		}
	}
	return best.v, best.r
}
