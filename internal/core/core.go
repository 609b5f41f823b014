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
// caller's goroutine from one encoding plan: the instance-only head of the
// feature vector is built once, and each candidate adds only its
// tuning-dependent tail. No feature vector is materialised, and every score
// is bit-identical to Model.Score(Encoder.Encode(q, cand)).
//
// cands must be valid for q's dimensionality (tunespace.Vector.Validate):
// the predefined sets are valid by construction, and vectors from outside
// the program are validated where they enter it (wire.Tunings).
func (t *Tuner) Scores(q stencil.Instance, cands []tunespace.Vector) ([]float64, error) {
	if t.Model == nil {
		return nil, errors.New("core: tuner has no model")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, errors.New("core: empty candidate set")
	}
	out := make([]float64, len(cands))
	t.Encoder.Plan(q).ScoreInto(out, t.Model.W, cands)
	return out, nil
}

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

// Best returns the top-ranked candidate. Unlike Rank it never sorts — an
// argmax scan over the scores suffices (ties resolve to the earliest
// candidate, exactly like Rank's first entry).
func (t *Tuner) Best(q stencil.Instance, cands []tunespace.Vector) (tunespace.Vector, error) {
	scores, err := t.Scores(q, cands)
	if err != nil {
		return tunespace.Vector{}, err
	}
	return cands[svmrank.ArgMax(scores)], nil
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
// from the scores (svmrank.TopK), never by sorting the whole set, and is
// exactly the head of Rank's order. With k ≪ |cands| this
// turns a 1024-evaluation search into a handful of runs. The k measurements
// are submitted as one batch (a concurrency-capable objective overlaps
// them); the winner is picked in rank order, so results never depend on the
// batch schedule.
func (t *Tuner) HybridTopK(q stencil.Instance, cands []tunespace.Vector, k int, obj search.BatchObjective) (HybridResult, error) {
	if k <= 0 {
		return HybridResult{}, fmt.Errorf("core: k = %d must be positive", k)
	}
	start := time.Now()
	scores, err := t.Scores(q, cands)
	if err != nil {
		return HybridResult{}, err
	}
	order := svmrank.TopK(scores, k)
	res := HybridResult{RankedFrom: len(cands), ModelBest: cands[order[0]], RankTime: time.Since(start)}
	res.Evaluations = len(order)
	top := make([]tunespace.Vector, len(order))
	for i, o := range order {
		top[i] = cands[o]
	}
	for i, val := range obj(top) {
		if i == 0 || val < res.BestValue {
			res.Best = top[i]
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

// BatchObjectiveFor wraps a BatchEvaluator into a search batch objective for
// one instance; engines running SearchBatch through it overlap each
// generation's evaluations as far as the evaluator allows.
func BatchObjectiveFor(eval dataset.BatchEvaluator, q stencil.Instance) search.BatchObjective {
	return func(vs []tunespace.Vector) []float64 { return eval.RuntimeBatch(q, vs) }
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
