package stenciltune

// Benchmark harness: one testing.B entry per table and figure of the paper,
// plus ablation benches (BenchmarkAblation*: pair strategy, C, sampling).
// Run with
//
//	go test -bench=. -benchmem
//
// Benchmarks report domain metrics via b.ReportMetric:
//
//	tau        — mean Kendall τ of the model over the predefined sets
//	quality    — mean fraction of the predefined-set oracle achieved by top-1
//	ns/rank    — latency of ranking one candidate set
//
// The full experiment outputs (the rendered tables/series) come from
// cmd/stencil-bench; these benches regenerate the same computations and time
// them.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/feature"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/ranking"
	"repro/internal/search"
	"repro/internal/shape"
	"repro/internal/stencil"
	"repro/internal/svmrank"
	"repro/internal/trainer"
	"repro/internal/tunespace"
)

var (
	benchOnce    sync.Once
	benchHarness *bench.Harness
)

// harness returns the shared experiment harness (models are cached across
// benchmarks, mirroring how the paper trains once and evaluates many times).
func harness() *bench.Harness {
	benchOnce.Do(func() {
		benchHarness = bench.New(perfmodel.New(machine.XeonE52680v3()), 1)
	})
	return benchHarness
}

// ---------------------------------------------------------------------------
// Tables and figures

// BenchmarkTable2 regenerates Table II: per-phase costs across the twelve
// training-set sizes (960 … 32000).
func BenchmarkTable2(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		rows, err := h.Table2(trainer.Table2Sizes())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig4 regenerates the Fig. 4 speedup comparison over all 17
// benchmarks: four search engines at 1024 evaluations vs ordinal regression
// at four training sizes.
func BenchmarkFig4(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		rows, err := h.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		// Report the mean ordinal-regression speedup at the largest size.
		big := h.Fig4Sizes[len(h.Fig4Sizes)-1]
		var sum float64
		for _, r := range rows {
			sum += r.Regression[big]
		}
		b.ReportMetric(sum/float64(len(rows)), "speedup")
	}
}

// BenchmarkFig5 regenerates the four convergence panels of Fig. 5.
func BenchmarkFig5(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		series, err := h.Fig5(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 4 {
			b.Fatalf("series = %d", len(series))
		}
	}
}

// BenchmarkFig6 regenerates the per-instance Kendall τ comparison of Fig. 6
// (training sizes 960 and 6720).
func BenchmarkFig6(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		res, err := h.Fig6(nil)
		if err != nil {
			b.Fatal(err)
		}
		med := ranking.Summarize(trainer.TauValues(res.Taus[6720])).Median
		b.ReportMetric(med, "tau-median")
	}
}

// BenchmarkFig7 regenerates the τ distribution across the twelve training
// sizes of Fig. 7.
func BenchmarkFig7(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		rows, err := h.Fig7(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Summary.Median, "tau-median")
		b.ReportMetric(rows[len(rows)-1].Summary.IQR, "tau-iqr")
	}
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks

// BenchmarkRegressionLatency measures the paper's "<1 ms" claim: scoring the
// full 8640-configuration 3-D predefined set with a trained model and
// picking its best.
func BenchmarkRegressionLatency(b *testing.B) {
	model, _, err := Train(TrainOptions{TrainingPoints: 960})
	if err != nil {
		b.Fatal(err)
	}
	tuner := model.Tuner()
	q := Instance{Kernel: Laplacian(), Size: Size3D(128, 128, 128)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tuner.TunePredefined(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraining measures SVM fitting alone at the paper's headline size.
func BenchmarkTraining(b *testing.B) {
	eval := perfmodel.New(machine.XeonE52680v3())
	set, err := dataset.Generate(eval, dataset.Options{TargetPoints: 3840, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := trainer.DefaultConfig(3840, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := svmrank.Train(set.Data, cfg.SVM); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfModel measures simulator evaluation throughput (it bounds how
// fast every search baseline can run).
func BenchmarkPerfModel(b *testing.B) {
	m := perfmodel.New(machine.XeonE52680v3())
	q := stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(256, 256, 256)}
	tv := tunespace.Vector{Bx: 64, By: 16, Bz: 4, U: 2, C: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Runtime(q, tv)
	}
}

// BenchmarkFeatureEncode measures encoder throughput.
func BenchmarkFeatureEncode(b *testing.B) {
	enc := feature.NewEncoder()
	q := stencil.Instance{Kernel: stencil.Tricubic(), Size: stencil.Size3D(256, 256, 256)}
	tv := tunespace.Vector{Bx: 64, By: 16, Bz: 4, U: 2, C: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(q, tv)
	}
}

// BenchmarkRealExecutor measures the actual Go stencil executor on the
// 7-point laplacian (the Measure evaluation mode's cost).
func BenchmarkRealExecutor(b *testing.B) {
	eval := Measured()
	q := Instance{Kernel: Laplacian(), Size: Size3D(64, 64, 64)}
	tv := TuningVector{Bx: 32, By: 16, Bz: 8, U: 4, C: 2}
	b.SetBytes(int64(q.Size.Points() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := eval.Runtime(q, tv); r <= 0 {
			b.Fatal("non-positive runtime")
		}
	}
}

// execBenchWorkspace allocates an output grid and filled input buffers of
// element type T for the executor benchmarks (nz = 1 for planar kernels).
func execBenchWorkspace[T grid.Float](k *exec.LinearKernel, n, nz int) (*grid.Grid[T], []*grid.Grid[T]) {
	halo := k.MaxOffset()
	haloZ := halo
	if nz == 1 {
		haloZ = 0
	}
	out := grid.NewOf[T](n, n, nz, halo, haloZ)
	var ins []*grid.Grid[T]
	for b := 0; b < k.Buffers; b++ {
		g := grid.NewOf[T](n, n, nz, halo, haloZ)
		g.FillPattern()
		ins = append(ins, g)
	}
	return out, ins
}

// asym2DExec is an asymmetric 6-term 2-D kernel (an upwind-biased first
// derivative plus transverse coupling), like most generated training
// kernels.
func asym2DExec() *exec.LinearKernel {
	return &exec.LinearKernel{Name: "asym2d", Buffers: 1, Terms: []exec.Term{
		{Offset: shape.Point{}, Weight: 0.42},
		{Offset: shape.Point{X: 1}, Weight: -0.21},
		{Offset: shape.Point{X: 2}, Weight: 0.04},
		{Offset: shape.Point{X: -1}, Weight: 0.31},
		{Offset: shape.Point{Y: 1}, Weight: 0.17},
		{Offset: shape.Point{Y: -2}, Weight: 0.27},
	}}
}

// offsets12Exec is a 12-term 3-D offset kernel of radius 2, like the offset
// kernels that measure-mode tunes time.
func offsets12Exec() *exec.LinearKernel {
	pts := []shape.Point{
		{}, {X: 1}, {X: -2}, {Y: 1}, {Y: -1}, {Z: 2},
		{Z: -1}, {X: 1, Y: 1}, {X: -1, Z: 1}, {Y: -2, Z: -1}, {X: 2, Y: -1}, {X: -1, Y: 2, Z: 1},
	}
	k := &exec.LinearKernel{Name: "offsets12", Buffers: 1}
	for i, p := range pts {
		k.Terms = append(k.Terms, exec.Term{Offset: p, Weight: 0.05 + 0.01*float64(i)})
	}
	return k
}

// execBenchCase is one (kernel, geometry, precision) point of the executor
// benchmarks.
type execBenchCase struct {
	name string
	k    *exec.LinearKernel
	n    int // grid extent per dimension
	nz   int // 1 for 2-D kernels
	tv   tunespace.Vector
	f32  bool // execute through the float32 engine
}

// execBenchCases covers the small grids where fixed per-call overhead
// dominates (the regime that pollutes Measure-mode training signals), a
// medium grid where compute dominates, and — via asym2d, gradient and
// offsets12 — the irregular shapes generated training kernels have.
// The "-f32" variants run the identical kernel+geometry through the float32
// engine; on the bandwidth-bound cases the halved element size should show
// up as throughput (CI renders the f32-vs-f64 delta). Run with -benchmem:
// the compiled path must report 0 allocs/op in steady state for both types.
func execBenchCases() []execBenchCase {
	tv3 := tunespace.Vector{Bx: 32, By: 16, Bz: 8, U: 4, C: 2}
	tv2 := tunespace.Vector{Bx: 64, By: 16, Bz: 1, U: 4, C: 2}
	var cases []execBenchCase
	for _, n := range []int{8, 16, 64} {
		cases = append(cases, execBenchCase{fmt.Sprintf("n=%d", n), exec.Executable(stencil.Laplacian()), n, n, tv3, false})
	}
	for _, n := range []int{64, 512} {
		cases = append(cases, execBenchCase{fmt.Sprintf("asym2d-n=%d", n), asym2DExec(), n, 1, tv2, false})
	}
	cases = append(cases, execBenchCase{"gradient-n=64", exec.Executable(stencil.Gradient()), 64, 64, tv3, false})
	// Short generic rows: the 16-wide tiles a measure-mode tune typically
	// picks, where per-row cost is about half the run.
	cases = append(cases, execBenchCase{"offsets12-n=64", offsets12Exec(), 64, 64,
		tunespace.Vector{Bx: 16, By: 8, Bz: 8, U: 4, C: 1}, false})
	// DRAM-resident laplacian (192³ ≈ 113 MB of float64 across the two
	// grids): the canonical bandwidth-bound case where halving the element
	// size must show up as throughput.
	cases = append(cases, execBenchCase{"n=192", exec.Executable(stencil.Laplacian()), 192, 192, tv3, false})
	// Single-precision variants of the bandwidth-bound cases.
	cases = append(cases,
		execBenchCase{"n=64-f32", exec.Executable(stencil.Laplacian()), 64, 64, tv3, true},
		execBenchCase{"n=192-f32", exec.Executable(stencil.Laplacian()), 192, 192, tv3, true},
		execBenchCase{"asym2d-n=512-f32", asym2DExec(), 512, 1, tv2, true},
		execBenchCase{"gradient-n=64-f32", exec.Executable(stencil.Gradient()), 64, 64, tv3, true},
	)
	return cases
}

// benchRunCompiled is the BenchmarkRunCompiled body for one element type.
func benchRunCompiled[T grid.Float](b *testing.B, tc execBenchCase) {
	r := exec.NewRunnerOf[T]()
	defer r.Close()
	out, ins := execBenchWorkspace[T](tc.k, tc.n, tc.nz)
	if err := r.Run(tc.k, out, ins, tc.tv); err != nil { // compile + warm pool
		b.Fatal(err)
	}
	b.SetBytes(int64(tc.n * tc.n * tc.nz * out.ElemBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(tc.k, out, ins, tc.tv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCompiled measures steady-state execution through the cached
// compiled program and the persistent worker pool, in both precisions.
func BenchmarkRunCompiled(b *testing.B) {
	for _, tc := range execBenchCases() {
		b.Run(tc.name, func(b *testing.B) {
			if tc.f32 {
				benchRunCompiled[float32](b, tc)
			} else {
				benchRunCompiled[float64](b, tc)
			}
		})
	}
}

// BenchmarkCompileNewKernel compiles a fresh 10-term offset kernel per
// iteration on a warm geometry: the cost each new kernel of a measure-mode
// tune pays before its first run. The kernels share one term list; only the
// kernel pointer, which keys the program cache, is new.
func BenchmarkCompileNewKernel(b *testing.B) {
	tv := tunespace.Vector{Bx: 16, By: 8, Bz: 8, U: 4, C: 1}
	terms := offsets12Exec().Terms[:10]
	for _, n := range []int{32, 48, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := exec.NewRunner()
			defer r.Close()
			k := &exec.LinearKernel{Name: "offsets10", Buffers: 1, Terms: terms}
			out, ins := execBenchWorkspace[float64](k, n, n)
			if _, err := r.Compile(k, out, ins, tv); err != nil { // warm the geometry
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := &exec.LinearKernel{Name: "offsets10", Buffers: 1, Terms: terms}
				if _, err := r.Compile(k, out, ins, tv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMeasureBatch times one hybrid measure tune's executor work: a
// fresh 10-term offset kernel (radius 2, as a measure request builds it)
// measured under the four vectors the measure workload picks most, at the
// default 3 repetitions. The sweeps are sub-millisecond at n=32..64, so the
// worker pool's dispatch and join costs show here.
func BenchmarkMeasureBatch(b *testing.B) {
	vectors := []tunespace.Vector{
		{Bx: 16, By: 8, Bz: 8, U: 4, C: 1},
		{Bx: 16, By: 4, Bz: 16, U: 4, C: 1},
		{Bx: 16, By: 8, Bz: 8, U: 2, C: 1},
		{Bx: 16, By: 4, Bz: 16, U: 2, C: 1},
	}
	var pts []shape.Point
	for _, t := range offsets12Exec().Terms[:10] {
		pts = append(pts, t.Offset)
	}
	for _, n := range []int{32, 48, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := exec.NewMeasurer()
			defer m.Close()
			size := stencil.Size3D(n, n, n)
			kernel := func() *stencil.Kernel {
				return &stencil.Kernel{Name: "offsets10", Shape: shape.New(pts...), Buffers: 1, Type: stencil.Float64}
			}
			if _, err := m.MeasureBatch(stencil.Instance{Kernel: kernel(), Size: size}, vectors); err != nil { // warm workspace + pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.MeasureBatch(stencil.Instance{Kernel: kernel(), Size: size}, vectors); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fusedBenchCases sweeps the temporal fusion depth on the DRAM-resident
// laplacian (the case fusion exists for): one fused sweep advances K steps
// while streaming the input through cache once, so per-step cost should drop
// roughly with the depth until the wavefront working set spills. K=1
// compiles the one-step program BenchmarkRunCompiled/n=192 already times.
func fusedBenchCases() []execBenchCase {
	tv3 := tunespace.Vector{Bx: 32, By: 16, Bz: 8, U: 4, C: 2}
	var cases []execBenchCase
	for _, k := range []int{2, 3, 4} {
		tv := tv3
		tv.K = k
		cases = append(cases,
			execBenchCase{fmt.Sprintf("n=192-k=%d", k), exec.Executable(stencil.Laplacian()), 192, 192, tv, false},
			execBenchCase{fmt.Sprintf("n=192-k=%d-f32", k), exec.Executable(stencil.Laplacian()), 192, 192, tv, true},
		)
	}
	return cases
}

// benchRunFused is the BenchmarkRunFused body for one element type. It
// reports per-STEP ns/op — a sweep of the fused program counts as K
// operations — so every row is directly comparable with the unfused
// BenchmarkRunCompiled/n=192 baseline.
func benchRunFused[T grid.Float](b *testing.B, tc execBenchCase) {
	r := exec.NewRunnerOf[T]()
	defer r.Close()
	out, ins := execBenchWorkspace[T](tc.k, tc.n, tc.nz)
	pr, err := r.Compile(tc.k, out, ins, tc.tv)
	if err != nil {
		b.Fatal(err)
	}
	if err := pr.Run(out, ins); err != nil { // warm pool + scratch
		b.Fatal(err)
	}
	steps := pr.Steps()
	b.SetBytes(int64(tc.n * tc.n * tc.nz * out.ElemBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += steps {
		if err := pr.Run(out, ins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFused measures the fused multi-timestep wavefront programs at
// depths 2..4 in both precisions, per step, against the one-step
// BenchmarkRunCompiled/n=192: this is where the DRAM-traffic savings must
// show up (CI fails if they don't).
func BenchmarkRunFused(b *testing.B) {
	for _, tc := range fusedBenchCases() {
		b.Run(tc.name, func(b *testing.B) {
			if tc.f32 {
				benchRunFused[float32](b, tc)
			} else {
				benchRunFused[float64](b, tc)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations

// meanQualityAndTau scores a model across all Table III benchmarks: the mean
// fraction of the predefined-set oracle achieved by the top-1 pick, and the
// mean Kendall τ over the predefined sets.
func meanQualityAndTau(b *testing.B, eval dataset.Evaluator, model *svmrank.Model) (float64, float64) {
	b.Helper()
	tuner := core.New(model)
	var sumQ, sumTau float64
	n := 0
	for _, q := range stencil.Benchmarks() {
		cands := tunespace.NewSpace(q.Kernel.Dims()).Predefined()
		quality := rankQuality(b, eval, tuner, q, cands)
		order, err := tuner.Rank(q, cands)
		if err != nil {
			b.Fatal(err)
		}
		rts := make([]float64, len(cands))
		predRank := make([]float64, len(cands))
		for i, v := range cands {
			rts[i] = eval.Runtime(q, v)
		}
		for pos, o := range order {
			predRank[o] = float64(pos)
		}
		sumQ += quality
		sumTau += ranking.KendallTau(rts, predRank)
		n++
	}
	return sumQ / float64(n), sumTau / float64(n)
}

// rankQuality is the fraction of the oracle's performance the model's top-1
// pick achieves on a candidate set: oracle runtime / chosen runtime, in
// (0, 1].
func rankQuality(b *testing.B, eval dataset.Evaluator, tuner *core.Tuner, q stencil.Instance, cands []tunespace.Vector) float64 {
	b.Helper()
	chosen, err := tuner.Best(q, cands)
	if err != nil {
		b.Fatal(err)
	}
	_, oracle := core.OracleBest(eval, q, cands)
	return oracle / eval.Runtime(q, chosen)
}

// ablationTrain trains one model with a modified config.
func ablationTrain(b *testing.B, mutate func(*trainer.Config)) (dataset.Evaluator, *svmrank.Model) {
	b.Helper()
	eval := perfmodel.New(machine.XeonE52680v3())
	cfg := trainer.DefaultConfig(3840, 1)
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := trainer.Train(eval, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return eval, res.Model
}

// BenchmarkAblationPairStrategy compares svmrank's all-pairs reference with
// the default adjacent pairs at a fixed training size.
func BenchmarkAblationPairStrategy(b *testing.B) {
	for _, strat := range []svmrank.PairStrategy{svmrank.FullPairs, svmrank.AdjacentPairs} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eval, model := ablationTrain(b, func(c *trainer.Config) {
					c.SVM.Pairs.Strategy = strat
				})
				q, tau := meanQualityAndTau(b, eval, model)
				b.ReportMetric(q, "quality")
				b.ReportMetric(tau, "tau")
			}
		})
	}
}

// BenchmarkAblationC sweeps the regularization parameter (the paper's
// "parameter sensitivity" analysis around its C=0.01 operating point).
func BenchmarkAblationC(b *testing.B) {
	for _, c := range []float64{0.01, 0.1, 1, 3, 10, 100} {
		name := "C=" + trimFloat(c)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eval, model := ablationTrain(b, func(cfg *trainer.Config) {
					cfg.SVM.C = c
				})
				q, tau := meanQualityAndTau(b, eval, model)
				b.ReportMetric(q, "quality")
				b.ReportMetric(tau, "tau")
			}
		})
	}
}

func trimFloat(v float64) string {
	switch {
	case v == float64(int(v)):
		return itoa(int(v))
	case v >= 0.1:
		return "0." + itoa(int(v*10)%10)
	default:
		return "0.0" + itoa(int(v*100)%100)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var d []byte
	for v > 0 {
		d = append([]byte{byte('0' + v%10)}, d...)
		v /= 10
	}
	return string(d)
}

// BenchmarkSearchEngines times each iterative baseline for a 1024-evaluation
// tuning run on the simulator (the cost the paper's Fig. 5 bars report in
// wall-clock hours on real hardware).
func BenchmarkSearchEngines(b *testing.B) {
	eval := perfmodel.New(machine.XeonE52680v3())
	q := stencil.Instance{Kernel: stencil.Gradient(), Size: stencil.Size3D(256, 256, 256)}
	obj := core.ObjectiveFor(eval, q)
	space := tunespace.NewSpace(3)
	for _, e := range search.Engines() {
		b.Run(e.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := e.Search(space, obj, 1024, int64(i))
				if r.BestValue <= 0 {
					b.Fatal("no solution")
				}
			}
		})
	}
}

// searchBenchEngines is the shared workload of the batched-vs-sequential
// search benchmarks: the paper's base engine on a Simulate-backed objective
// (Gradient 256³, the heaviest Fig. 5 panel).
func searchBenchEngines() []search.Engine {
	return []search.Engine{search.NewGenerationalGA()}
}

const searchBenchBudget = 2048

// searchBenchWorkers is ≥4 on every machine; real overlap obviously needs
// the cores to exist.
func searchBenchWorkers() int { return max(4, runtime.GOMAXPROCS(0)) }

// BenchmarkSearchSequential is the baseline: every candidate evaluated one
// at a time on the calling goroutine (Engine.Search).
func BenchmarkSearchSequential(b *testing.B) {
	eval := perfmodel.New(machine.XeonE52680v3())
	q := stencil.Instance{Kernel: stencil.Gradient(), Size: stencil.Size3D(256, 256, 256)}
	space := tunespace.NewSpace(3)
	for _, e := range searchBenchEngines() {
		b.Run(e.Name(), func(b *testing.B) {
			obj := core.ObjectiveFor(eval, q)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := e.Search(space, obj, searchBenchBudget, 1)
				if r.BestValue <= 0 {
					b.Fatal("no solution")
				}
			}
		})
	}
}

// BenchmarkSearchBatched runs the same engines through SearchBatch with a
// concurrent batch evaluator; per-generation candidate sets evaluate in
// parallel. The Result is bit-identical to the sequential run (asserted by
// TestBatchedMatchesSequential); only the wall clock differs.
func BenchmarkSearchBatched(b *testing.B) {
	eval := perfmodel.New(machine.XeonE52680v3())
	q := stencil.Instance{Kernel: stencil.Gradient(), Size: stencil.Size3D(256, 256, 256)}
	space := tunespace.NewSpace(3)
	workers := searchBenchWorkers()
	for _, e := range searchBenchEngines() {
		b.Run(e.Name(), func(b *testing.B) {
			obj := core.BatchObjectiveFor(dataset.Batched(eval, workers), q)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := e.SearchBatch(space, obj, searchBenchBudget, 1)
				if r.BestValue <= 0 {
					b.Fatal("no solution")
				}
			}
		})
	}
}

// BenchmarkDatasetGenerate measures training-set generation at the paper's
// headline size, sequentially and with all cores (per-instance RNG streams
// make both produce the identical Set).
func BenchmarkDatasetGenerate(b *testing.B) {
	for _, workers := range []int{1, searchBenchWorkers()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eval := perfmodel.New(machine.XeonE52680v3())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set, err := dataset.Generate(eval, dataset.Options{TargetPoints: 3840, Seed: 1, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if set.Len() != 3840 {
					b.Fatalf("set size %d", set.Len())
				}
			}
		})
	}
}

// BenchmarkHybridTopK measures the future-work coupling: rank the predefined
// set, then evaluate only the top-k.
func BenchmarkHybridTopK(b *testing.B) {
	model, _, err := Train(TrainOptions{TrainingPoints: 3840})
	if err != nil {
		b.Fatal(err)
	}
	tuner := model.Tuner()
	eval := Simulator()
	q := Instance{Kernel: Gradient(), Size: Size3D(256, 256, 256)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tuner.HybridTune(q, 16, eval); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSampling compares the paper's uniform-random training-set
// generation with the heuristic mixed sampler (the conclusion's future-work
// direction).
func BenchmarkAblationSampling(b *testing.B) {
	for _, s := range []dataset.Sampling{dataset.UniformRandom, dataset.HeuristicMixed} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eval, model := ablationTrain(b, func(c *trainer.Config) {
					c.Dataset.Sampling = s
				})
				q, tau := meanQualityAndTau(b, eval, model)
				b.ReportMetric(q, "quality")
				b.ReportMetric(tau, "tau")
			}
		})
	}
}
