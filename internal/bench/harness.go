// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation section:
//
//	Table II — per-phase costs across twelve training-set sizes
//	Table III — the benchmark inventory
//	Fig. 4 — speedup vs the GA-1024 base configuration, all 17 benchmarks
//	Fig. 5 — GFlop/s vs evaluation count for four stencils + time-to-solution
//	Fig. 6 — per-instance Kendall τ at two training sizes
//	Fig. 7 — Kendall τ distribution across twelve training sizes
//
// Each experiment returns structured rows; rendering (ASCII tables/charts and
// CSV) lives in render.go. Used by cmd/stencil-bench and bench_test.go.
package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ranking"
	"repro/internal/search"
	"repro/internal/stencil"
	"repro/internal/svmrank"
	"repro/internal/trainer"
	"repro/internal/tunespace"
)

// Harness runs the experiments against one evaluator.
type Harness struct {
	Eval dataset.Evaluator
	// Validator re-measures final configurations for reporting (Fig. 4).
	// Search engines select on Eval, whose noise they can exploit
	// ("winner's curse"); the paper's speedups come from fresh
	// measurements of the chosen configurations, which Validator models by
	// using an independently-seeded noise stream. Defaults to Eval.
	Validator dataset.Evaluator
	// Seed drives every random component; same seed → same report.
	Seed int64
	// Budget is the per-engine evaluation budget (the paper uses 1024).
	Budget int
	// Workers bounds concurrent training-set generation (0/1 sequential,
	// negative = GOMAXPROCS). Reports are identical for every worker count:
	// dataset generation uses per-instance RNG streams.
	Workers int
	// Fig4Sizes are the ordinal-regression training sizes of Fig. 4.
	Fig4Sizes []int
	// models caches one trained model per training size.
	models map[int]*svmrank.Model
	// sets caches the generated training set per size (Fig. 6/7 reuse).
	sets map[int]*dataset.Set
}

// New returns a harness with the paper's experiment parameters.
func New(eval dataset.Evaluator, seed int64) *Harness {
	return &Harness{
		Eval:      eval,
		Validator: eval,
		Seed:      seed,
		Budget:    1024,
		Fig4Sizes: []int{960, 3840, 6720, 16000},
		models:    make(map[int]*svmrank.Model),
		sets:      make(map[int]*dataset.Set),
	}
}

// Close releases resources held by evaluators that own persistent worker
// pools or pooled grid workspaces (the Measure-mode executor returns its
// grids to the grid pool here). It is a no-op for simulator-backed
// harnesses, so callers may defer it unconditionally.
func (h *Harness) Close() {
	for _, e := range []dataset.Evaluator{h.Eval, h.Validator} {
		if c, ok := e.(interface{ Close() }); ok {
			c.Close()
		}
	}
}

// modelFor trains (or returns the cached) model for a training-set size.
func (h *Harness) modelFor(size int) (*svmrank.Model, *dataset.Set, error) {
	if m, ok := h.models[size]; ok {
		return m, h.sets[size], nil
	}
	cfg := trainer.DefaultConfig(size, h.Seed)
	cfg.Dataset.Workers = h.Workers
	res, err := trainer.Train(h.Eval, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: training size %d: %w", size, err)
	}
	h.models[size] = res.Model
	h.sets[size] = res.Set
	return res.Model, res.Set, nil
}

// ---------------------------------------------------------------------------
// Table II

// Table2 measures the per-phase costs for the given training-set sizes
// (trainer.Table2Sizes() for the full table).
func (h *Harness) Table2(sizes []int) ([]trainer.Phases, error) {
	return trainer.MeasurePhases(h.Eval, sizes, 0, h.Seed, h.Workers)
}

// ---------------------------------------------------------------------------
// Fig. 4

// Fig4Row is one benchmark's bar group in Fig. 4: the speedup of every
// method relative to the base configuration (generational GA, 1024 evals).
type Fig4Row struct {
	Benchmark   string
	BaseRuntime float64            // runtime of the GA-1024 base config
	Search      map[string]float64 // engine name → speedup
	Regression  map[int]float64    // training size → speedup
	OracleBound float64            // best of the predefined set → speedup bound
}

// Fig4 reproduces the speedup comparison over all 17 Table III benchmarks.
func (h *Harness) Fig4() ([]Fig4Row, error) {
	// Train all models first so failures surface early.
	for _, size := range h.Fig4Sizes {
		if _, _, err := h.modelFor(size); err != nil {
			return nil, err
		}
	}
	var rows []Fig4Row
	for _, q := range stencil.Benchmarks() {
		row, err := h.fig4Row(q)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", q.ID(), err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (h *Harness) fig4Row(q stencil.Instance) (Fig4Row, error) {
	space := tunespace.NewSpace(q.Kernel.Dims())
	obj := core.ObjectiveFor(h.Eval, q)

	// Base configuration: generational GA after the full budget. All final
	// configurations are re-measured with the Validator (fresh noise) —
	// the search may have selected a lucky measurement.
	validator := h.Validator
	if validator == nil {
		validator = h.Eval
	}
	base := search.NewGenerationalGA().Search(space, obj, h.Budget, h.Seed)
	baseRuntime := validator.Runtime(q, base.Best)
	row := Fig4Row{
		Benchmark:   q.ID(),
		BaseRuntime: baseRuntime,
		Search:      map[string]float64{"genetic algorithm": 1.0},
		Regression:  map[int]float64{},
	}
	for _, e := range search.Engines() {
		if e.Name() == "genetic algorithm" {
			continue
		}
		r := e.Search(space, obj, h.Budget, h.Seed)
		row.Search[e.Name()] = baseRuntime / validator.Runtime(q, r.Best)
	}
	cands := space.Predefined()
	for _, size := range h.Fig4Sizes {
		model, _, err := h.modelFor(size)
		if err != nil {
			return row, err
		}
		tuner := core.New(model)
		best, err := tuner.Best(q, cands)
		if err != nil {
			return row, err
		}
		row.Regression[size] = baseRuntime / validator.Runtime(q, best)
	}
	_, oracle := core.OracleBest(validator, q, cands)
	row.OracleBound = baseRuntime / oracle
	return row, nil
}

// ---------------------------------------------------------------------------
// Fig. 5

// Fig5Point is one sample of a convergence curve.
type Fig5Point struct {
	Evaluations int
	GFlops      float64
}

// Fig5Series is the full panel for one stencil benchmark.
type Fig5Series struct {
	Benchmark string
	// Curves maps engine name → GFlop/s of the best-so-far configuration
	// at evaluation counts 2^0 … 2^10.
	Curves map[string][]Fig5Point
	// Regression maps training size → the GFlop/s of the model's
	// top-ranked configuration (the horizontal lines of Fig. 5).
	Regression map[int]float64
	// TimeToSolution maps method → seconds spent to produce its answer:
	// for search engines the simulated cost of running all evaluated
	// configurations; for the regression model the measured ranking time.
	TimeToSolution map[string]float64
}

// Fig5Benchmarks returns the four stencils shown in Fig. 5.
func Fig5Benchmarks() []stencil.Instance {
	return []stencil.Instance{
		{Kernel: stencil.Gradient(), Size: stencil.Size3D(256, 256, 256)},
		{Kernel: stencil.Tricubic(), Size: stencil.Size3D(256, 256, 256)},
		{Kernel: stencil.Blur(), Size: stencil.Size2D(1024, 768)},
		{Kernel: stencil.Divergence(), Size: stencil.Size3D(128, 128, 128)},
	}
}

// Fig5 reproduces the convergence panels for the given benchmarks (defaults
// to Fig5Benchmarks when nil).
func (h *Harness) Fig5(benchmarks []stencil.Instance) ([]Fig5Series, error) {
	if benchmarks == nil {
		benchmarks = Fig5Benchmarks()
	}
	var out []Fig5Series
	for _, q := range benchmarks {
		s, err := h.fig5Series(q)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", q.ID(), err)
		}
		out = append(out, s)
	}
	return out, nil
}

// gflopsOf converts a runtime into throughput for an instance.
func gflopsOf(q stencil.Instance, seconds float64) float64 {
	return float64(q.Size.Points()) * float64(q.Kernel.Flops()) / seconds / 1e9
}

func (h *Harness) fig5Series(q stencil.Instance) (Fig5Series, error) {
	space := tunespace.NewSpace(q.Kernel.Dims())
	obj := core.ObjectiveFor(h.Eval, q)
	s := Fig5Series{
		Benchmark:      q.ID(),
		Curves:         map[string][]Fig5Point{},
		Regression:     map[int]float64{},
		TimeToSolution: map[string]float64{},
	}
	for _, e := range search.Engines() {
		r := e.Search(space, obj, h.Budget, h.Seed)
		var curve []Fig5Point
		for n := 1; n <= h.Budget; n *= 2 {
			curve = append(curve, Fig5Point{Evaluations: n, GFlops: gflopsOf(q, r.BestAfter(n))})
		}
		s.Curves[e.Name()] = curve
		// Simulated time-to-solution: the summed runtime of every evaluated
		// configuration — what iterative compilation actually costs on the
		// testbed (History only keeps best-so-far, so re-run with an
		// accumulating objective).
		s.TimeToSolution[e.Name()] = h.searchCost(q, e)
	}
	cands := space.Predefined()
	for _, size := range h.Fig4Sizes {
		model, _, err := h.modelFor(size)
		if err != nil {
			return s, err
		}
		tuner := core.New(model)
		start := time.Now()
		best, err := tuner.Best(q, cands)
		if err != nil {
			return s, err
		}
		rankTime := time.Since(start).Seconds()
		s.Regression[size] = gflopsOf(q, h.Eval.Runtime(q, best))
		key := fmt.Sprintf("ord.regression size=%d", size)
		s.TimeToSolution[key] = rankTime
	}
	return s, nil
}

// searchCost re-runs the engine charging the simulated execution cost of
// every distinct evaluated configuration.
func (h *Harness) searchCost(q stencil.Instance, e search.Engine) float64 {
	space := tunespace.NewSpace(q.Kernel.Dims())
	var total float64
	obj := func(v tunespace.Vector) float64 {
		r := h.Eval.Runtime(q, v)
		total += r
		return r
	}
	e.Search(space, obj, h.Budget, h.Seed)
	return total
}

// ---------------------------------------------------------------------------
// Fig. 6 / Fig. 7

// Fig6Result holds the per-instance τ sequences for the compared sizes.
type Fig6Result struct {
	// Taus maps training size → τ per training instance, in instance order.
	Taus map[int][]trainer.QueryTau
}

// Fig6Sizes returns the two training-set sizes compared in Fig. 6.
func Fig6Sizes() []int { return []int{960, 6720} }

// Fig6 computes the Kendall τ of every training instance for the two sizes.
func (h *Harness) Fig6(sizes []int) (Fig6Result, error) {
	if sizes == nil {
		sizes = Fig6Sizes()
	}
	out := Fig6Result{Taus: map[int][]trainer.QueryTau{}}
	for _, size := range sizes {
		model, set, err := h.modelFor(size)
		if err != nil {
			return out, err
		}
		out.Taus[size] = trainer.EvaluateTau(model, set)
	}
	return out, nil
}

// Fig7Row is one box+violin of Fig. 7.
type Fig7Row struct {
	Size    int
	Summary ranking.Summary
	// Density is a Gaussian KDE of the τ sample evaluated on DensityGrid.
	Density []float64
}

// DensityGrid returns the τ-axis evaluation points used for the violins.
func DensityGrid() []float64 {
	const n = 41
	grid := make([]float64, n)
	for i := range grid {
		grid[i] = -1 + 2*float64(i)/float64(n-1)
	}
	return grid
}

// Fig7 computes the τ distribution per training-set size (defaults to the
// twelve Table II sizes).
func (h *Harness) Fig7(sizes []int) ([]Fig7Row, error) {
	if sizes == nil {
		sizes = trainer.Table2Sizes()
	}
	grid := DensityGrid()
	var rows []Fig7Row
	for _, size := range sizes {
		model, set, err := h.modelFor(size)
		if err != nil {
			return nil, err
		}
		taus := trainer.TauValues(trainer.EvaluateTau(model, set))
		rows = append(rows, Fig7Row{
			Size:    size,
			Summary: ranking.Summarize(taus),
			Density: ranking.KDE(taus, grid),
		})
	}
	return rows, nil
}
