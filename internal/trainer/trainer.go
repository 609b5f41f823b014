// Package trainer wires the full training pipeline of Fig. 3: generate the
// training stencil codes and instances, evaluate them, assemble the partial
// rankings, encode feature vectors, and fit the ordinal-regression model.
// It also measures the per-phase costs reported in Table II and the
// per-instance Kendall τ analysis of Figs. 6 and 7.
package trainer

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/ranking"
	"repro/internal/stencil"
	"repro/internal/svmrank"
	"repro/internal/tunespace"
)

// Config bundles the pipeline knobs.
type Config struct {
	Dataset dataset.Options
	SVM     svmrank.Options
}

// DefaultConfig reproduces the paper's setup: a linear kernel trained on
// within-query pairs. The paper fixes SVM-Rank's -c to 0.01 (whose objective
// divides it by the query count); svmrank's C is the slack cost of one pair,
// undivided, and with our from-scratch solver, feature encoding and
// simulated substrate the equivalent operating point of the regularization
// plateau sits at C = 3 — see the C-sensitivity ablation BenchmarkAblationC
// in bench_test.go.
//
// Generation runs sequentially by default; set Dataset.Workers (the
// generated Set is identical for every worker count).
func DefaultConfig(targetPoints int, seed int64) Config {
	return Config{
		Dataset: dataset.Options{TargetPoints: targetPoints, Seed: seed},
		SVM: svmrank.Options{
			C:      3,
			Epochs: 60,
			Seed:   seed,
			Pairs:  svmrank.PairOptions{Strategy: svmrank.AdjacentPairs, Window: 8},
		},
	}
}

// Result is a trained model with its provenance.
type Result struct {
	Set      *dataset.Set
	Model    *svmrank.Model
	SVMStats svmrank.Stats
}

// Train runs the full pipeline against the evaluator.
func Train(eval dataset.Evaluator, cfg Config) (*Result, error) {
	set, err := dataset.Generate(eval, cfg.Dataset)
	if err != nil {
		return nil, fmt.Errorf("trainer: generating training set: %w", err)
	}
	model, stats, err := svmrank.Train(set.Data, cfg.SVM)
	if err != nil {
		return nil, fmt.Errorf("trainer: fitting model: %w", err)
	}
	return &Result{Set: set, Model: model, SVMStats: stats}, nil
}

// QueryTau is the Kendall τ of one training instance (one point of Fig. 6).
type QueryTau struct {
	Query string
	Tau   float64
	Size  int // executions in the group
}

// EvaluateTau compares, per instance, the training-set runtime ordering with
// the model's predicted ordering, exactly as Sec. VI-B does: predicted scores
// are negated so that both sequences order "smaller is better".
func EvaluateTau(model *svmrank.Model, set *dataset.Set) []QueryTau {
	return EvaluateTauData(model, set.Data)
}

// EvaluateTauData computes per-query τ directly on an svmrank dataset,
// allowing evaluation on arbitrary subsets (cross-validation). All examples
// are scored in one ScoreBatch call (the model is read-only and batch
// scoring parallelizes internally) before the per-query τ loop.
func EvaluateTauData(model *svmrank.Model, data *svmrank.Dataset) []QueryTau {
	xs := make([]feature.Vector, data.Len())
	for i, e := range data.Examples {
		xs[i] = e.X
	}
	scores := model.ScoreBatch(xs)

	groups := data.Groups()
	out := make([]QueryTau, 0, len(groups))
	for _, q := range data.Queries() {
		idx := groups[q]
		if len(idx) < 2 {
			continue
		}
		runtimes := make([]float64, len(idx))
		predicted := make([]float64, len(idx))
		for i, e := range idx {
			runtimes[i] = data.Examples[e].Y
			predicted[i] = -scores[e]
		}
		out = append(out, QueryTau{
			Query: q,
			Tau:   ranking.KendallTau(runtimes, predicted),
			Size:  len(idx),
		})
	}
	return out
}

// TauValues extracts the raw τ sample from EvaluateTau output.
func TauValues(qs []QueryTau) []float64 {
	vals := make([]float64, len(qs))
	for i, q := range qs {
		vals[i] = q.Tau
	}
	return vals
}

// Phases is one row of Table II.
type Phases struct {
	TSSize int
	// TSCompile is the simulated PATUS+gcc double-compilation cost. The
	// paper reports one aggregate 32 h figure for all training codes.
	TSCompile time.Duration
	// TSGeneration is the simulated execution time of the training runs.
	TSGeneration time.Duration
	// Training is the measured SVM fitting time in this process.
	Training time.Duration
	// Regression is the measured time to rank RegressionCandidates tuning
	// settings with the fitted model.
	Regression time.Duration
}

// MeasurePhases reproduces Table II: for each training-set size it runs the
// pipeline and measures each phase. The regression phase ranks the 3-D
// predefined set on a representative instance through core.Tuner.Rank, the
// path the service runs; regressionCandidates > 0 ranks only that many
// settings (the paper ranks the predefined sets and reports <1 ms
// throughout). workers bounds concurrent training-set generation (0/1
// sequential, negative = GOMAXPROCS); the generated sets — and therefore the
// fitted models — are identical for every worker count.
func MeasurePhases(eval dataset.Evaluator, sizes []int, regressionCandidates int, seed int64, workers int) ([]Phases, error) {
	q := stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(128, 128, 128)}
	cands := tunespace.NewSpace(3).Predefined()
	if regressionCandidates > 0 && regressionCandidates < len(cands) {
		cands = cands[:regressionCandidates]
	}

	var rows []Phases
	for _, size := range sizes {
		cfg := DefaultConfig(size, seed)
		cfg.Dataset.Workers = workers
		res, err := Train(eval, cfg)
		if err != nil {
			return nil, fmt.Errorf("trainer: size %d: %w", size, err)
		}
		tuner := core.New(res.Model)
		start := time.Now()
		if _, err := tuner.Rank(q, cands); err != nil {
			return nil, fmt.Errorf("trainer: size %d: ranking: %w", size, err)
		}
		regression := time.Since(start)
		rows = append(rows, Phases{
			TSSize:       size,
			TSCompile:    res.Set.SimulatedCompileTime,
			TSGeneration: res.Set.SimulatedExecTime,
			Training:     res.SVMStats.TrainTime,
			Regression:   regression,
		})
	}
	return rows, nil
}

// Table2Sizes returns the twelve training-set sizes of Table II.
func Table2Sizes() []int {
	return []int{960, 1920, 2880, 3840, 4800, 5760, 6720, 7680, 8640, 9600, 16000, 32000}
}
