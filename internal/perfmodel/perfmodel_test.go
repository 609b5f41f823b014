package perfmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

func model() *Model { return New(machine.XeonE52680v3()) }

func lap256() stencil.Instance {
	return stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(256, 256, 256)}
}

func blurQ() stencil.Instance {
	return stencil.Instance{Kernel: stencil.Blur(), Size: stencil.Size2D(1024, 768)}
}

func TestRuntimePositiveAndFinite(t *testing.T) {
	m := model()
	rng := rand.New(rand.NewSource(1))
	for _, q := range stencil.Benchmarks() {
		space := tunespace.NewSpace(q.Kernel.Dims())
		for i := 0; i < 300; i++ {
			tv := space.Random(rng)
			r := m.Runtime(q, tv)
			if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("%s %v: runtime %v", q.ID(), tv, r)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	m1, m2 := model(), model()
	q := lap256()
	tv := tunespace.Vector{Bx: 64, By: 32, Bz: 8, U: 4, C: 2}
	if m1.Runtime(q, tv) != m2.Runtime(q, tv) {
		t.Fatal("model not deterministic across instances")
	}
	if m1.Runtime(q, tv) != m1.Runtime(q, tv) {
		t.Fatal("model not deterministic across calls")
	}
}

func TestSeedChangesNoiseOnly(t *testing.T) {
	a := model()
	b := model()
	b.Seed = 99
	q := lap256()
	tv := tunespace.Vector{Bx: 64, By: 32, Bz: 8, U: 4, C: 2}
	ra, rb := a.Runtime(q, tv), b.Runtime(q, tv)
	if ra == rb {
		t.Error("different seeds produced identical runtimes (noise inactive?)")
	}
	if math.Abs(ra-rb)/ra > 0.07 {
		t.Errorf("seed changed runtime by %.1f%%, noise should be ±3%%", 100*math.Abs(ra-rb)/ra)
	}
}

func TestNoiseAmpZeroDisablesNoise(t *testing.T) {
	a := model()
	a.NoiseAmp = 0
	b := model()
	b.NoiseAmp = 0
	b.Seed = 1234
	q := blurQ()
	tv := tunespace.Vector{Bx: 128, By: 16, Bz: 1, U: 2, C: 2}
	if a.Runtime(q, tv) != b.Runtime(q, tv) {
		t.Error("NoiseAmp=0 should make seeds irrelevant")
	}
}

func TestTinyTilesSlowerThanModerate(t *testing.T) {
	// Degenerate 2×2×2 tiles pay massive halo traffic and per-tile overhead.
	m := model()
	m.NoiseAmp = 0
	q := lap256()
	tiny := m.Runtime(q, tunespace.Vector{Bx: 2, By: 2, Bz: 2, U: 0, C: 1})
	moderate := m.Runtime(q, tunespace.Vector{Bx: 256, By: 16, Bz: 4, U: 4, C: 2})
	if tiny < 2*moderate {
		t.Errorf("tiny tiles (%.4fs) should be much slower than moderate (%.4fs)", tiny, moderate)
	}
}

func TestCacheFitMatters(t *testing.T) {
	// A tile streaming the whole 256³ double grid cannot beat an L2-sized tile.
	m := model()
	m.NoiseAmp = 0
	q := lap256()
	huge := m.Runtime(q, tunespace.Vector{Bx: 1024, By: 1024, Bz: 1024, U: 4, C: 1})
	fit := m.Runtime(q, tunespace.Vector{Bx: 256, By: 8, Bz: 4, U: 4, C: 1})
	if fit >= huge {
		t.Errorf("cache-fitting tile (%.4fs) not faster than whole-grid tile (%.4fs)", fit, huge)
	}
}

func TestUnrollHelpsComputeBoundKernel(t *testing.T) {
	// Tricubic with an L1-resident tile is compute bound; moderate unroll must
	// beat none.
	m := model()
	m.NoiseAmp = 0
	q := stencil.Instance{Kernel: stencil.Tricubic(), Size: stencil.Size3D(128, 128, 128)}
	none := m.Runtime(q, tunespace.Vector{Bx: 64, By: 4, Bz: 2, U: 0, C: 2})
	some := m.Runtime(q, tunespace.Vector{Bx: 64, By: 4, Bz: 2, U: 2, C: 2})
	if some >= none {
		t.Errorf("u=2 (%.4fs) should beat u=0 (%.4fs) on compute-bound kernel", some, none)
	}
}

func TestExtremeUnrollSpills(t *testing.T) {
	// On a dense 64-point kernel, u=8 holds too many live values.
	m := model()
	m.NoiseAmp = 0
	q := stencil.Instance{Kernel: stencil.Tricubic(), Size: stencil.Size3D(128, 128, 128)}
	b2 := m.Evaluate(q, tunespace.Vector{Bx: 64, By: 4, Bz: 2, U: 2, C: 2})
	b8 := m.Evaluate(q, tunespace.Vector{Bx: 64, By: 4, Bz: 2, U: 8, C: 2})
	if b8.UnrollFactor <= b2.UnrollFactor {
		t.Errorf("u=8 unroll factor %.3f should exceed u=2 %.3f (register spill)",
			b8.UnrollFactor, b2.UnrollFactor)
	}
}

func TestChunkTradeoff(t *testing.T) {
	// With very many tiny dispatch groups, overhead dominates; with one giant
	// chunk, parallelism collapses. A moderate chunk beats both extremes on a
	// workload with plenty of tiles.
	m := model()
	m.NoiseAmp = 0
	q := lap256()
	tv := tunespace.Vector{Bx: 32, By: 4, Bz: 2, U: 2, C: 1}
	b := m.Evaluate(q, tv)
	if b.Groups != b.Tiles {
		t.Fatalf("c=1 should give one group per tile")
	}
	// Fewer groups with bigger chunks.
	b8 := m.Evaluate(q, tunespace.Vector{Bx: 32, By: 4, Bz: 2, U: 2, C: 8})
	if b8.Groups >= b.Groups {
		t.Errorf("c=8 groups %d should be < c=1 groups %d", b8.Groups, b.Groups)
	}
	if b8.DispatchNs >= b.DispatchNs {
		t.Errorf("bigger chunks should reduce dispatch cost")
	}
}

func TestParallelismBounded(t *testing.T) {
	m := model()
	rng := rand.New(rand.NewSource(2))
	q := lap256()
	space := tunespace.NewSpace(3)
	for i := 0; i < 500; i++ {
		b := m.Evaluate(q, space.Random(rng))
		if b.Parallelism <= 0 || b.Parallelism > float64(m.M.Cores) {
			t.Fatalf("parallelism %v outside (0, %d]", b.Parallelism, m.M.Cores)
		}
	}
}

func TestFewGroupsLimitParallelism(t *testing.T) {
	m := model()
	m.NoiseAmp = 0
	q := lap256()
	// One huge tile -> one group -> sequential execution.
	b := m.Evaluate(q, tunespace.Vector{Bx: 1024, By: 1024, Bz: 1024, U: 0, C: 16})
	if b.Groups != 1 {
		t.Fatalf("expected 1 group, got %d", b.Groups)
	}
	if b.Parallelism != 1 {
		t.Errorf("single group must serialize: parallelism = %v", b.Parallelism)
	}
}

func TestSIMDEfficiency(t *testing.T) {
	m := model()
	q := lap256() // double: 4 lanes
	full := m.Evaluate(q, tunespace.Vector{Bx: 64, By: 8, Bz: 4, U: 2, C: 2})
	if full.SIMDEfficiency != 1 {
		t.Errorf("bx=64 double should fill vectors: eff = %v", full.SIMDEfficiency)
	}
	// bx=2 with 4 lanes wastes half a vector.
	partial := m.Evaluate(q, tunespace.Vector{Bx: 2, By: 8, Bz: 4, U: 2, C: 2})
	if partial.SIMDEfficiency != 0.5 {
		t.Errorf("bx=2 double SIMD efficiency = %v, want 0.5", partial.SIMDEfficiency)
	}
}

func TestFloatKernelFasterThanDoubleEquivalent(t *testing.T) {
	// Same shape and size, float vs double: float streams half the bytes and
	// packs twice the lanes, so it must be faster under equal tuning.
	m := model()
	m.NoiseAmp = 0
	kf := &stencil.Kernel{Name: "lap-f", Shape: stencil.Laplacian().Shape, Buffers: 1, Type: stencil.Float32}
	kd := &stencil.Kernel{Name: "lap-d", Shape: stencil.Laplacian().Shape, Buffers: 1, Type: stencil.Float64}
	sz := stencil.Size3D(256, 256, 256)
	tv := tunespace.Vector{Bx: 128, By: 8, Bz: 4, U: 2, C: 2}
	rf := m.Runtime(stencil.Instance{Kernel: kf, Size: sz}, tv)
	rd := m.Runtime(stencil.Instance{Kernel: kd, Size: sz}, tv)
	if rf >= rd {
		t.Errorf("float %.5fs should beat double %.5fs", rf, rd)
	}
}

func TestGFlopsPlausibleRange(t *testing.T) {
	// Fig. 5 reports single-digit to tens of GFlop/s on this machine. Check
	// our best-tuned kernels fall in a plausible 0.1..500 range.
	m := model()
	rng := rand.New(rand.NewSource(3))
	for _, q := range stencil.Benchmarks() {
		space := tunespace.NewSpace(q.Kernel.Dims())
		best := 0.0
		for i := 0; i < 300; i++ {
			g := m.Evaluate(q, space.Random(rng)).GFlops
			if g > best {
				best = g
			}
		}
		if best < 0.1 || best > 500 {
			t.Errorf("%s: best GFlops %.2f implausible", q.ID(), best)
		}
	}
}

func TestTuningMattersEnough(t *testing.T) {
	// The search space must be worth tuning: best/worst runtime ratio over a
	// random sample should exceed 2x for every benchmark.
	m := model()
	rng := rand.New(rand.NewSource(4))
	for _, q := range stencil.Benchmarks() {
		space := tunespace.NewSpace(q.Kernel.Dims())
		lo, hi := math.Inf(1), 0.0
		for i := 0; i < 400; i++ {
			r := m.Runtime(q, space.Random(rng))
			lo = math.Min(lo, r)
			hi = math.Max(hi, r)
		}
		if hi/lo < 2 {
			t.Errorf("%s: runtime spread %.2fx too flat for a tuning study", q.ID(), hi/lo)
		}
	}
}

func TestBreakdownConsistency(t *testing.T) {
	m := model()
	m.NoiseAmp = 0
	q := lap256()
	b := m.Evaluate(q, tunespace.Vector{Bx: 64, By: 16, Bz: 4, U: 2, C: 2})
	if b.Tiles != 4*16*64 {
		t.Errorf("tiles = %d, want %d", b.Tiles, 4*16*64)
	}
	if b.Groups != (b.Tiles+1)/2 {
		t.Errorf("groups = %d, want ceil(tiles/2)", b.Groups)
	}
	wantGF := float64(q.Size.Points()) * float64(q.Kernel.Flops()) / (b.Seconds * 1e9)
	if math.Abs(b.GFlops-wantGF)/wantGF > 1e-9 {
		t.Errorf("GFlops %.4f inconsistent with seconds (%.4f)", b.GFlops, wantGF)
	}
}

func TestHash01Range(t *testing.T) {
	m := model()
	rng := rand.New(rand.NewSource(5))
	q := blurQ()
	space := tunespace.NewSpace(2)
	for i := 0; i < 1000; i++ {
		h := m.hash01(q, space.Random(rng))
		if h < 0 || h >= 1 {
			t.Fatalf("hash01 = %v outside [0,1)", h)
		}
	}
}

func TestRuntimeScalesWithProblemSize(t *testing.T) {
	m := model()
	m.NoiseAmp = 0
	tv := tunespace.Vector{Bx: 64, By: 8, Bz: 4, U: 2, C: 2}
	small := m.Runtime(stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(128, 128, 128)}, tv)
	large := m.Runtime(lap256(), tv)
	ratio := large / small
	if ratio < 4 || ratio > 16 {
		t.Errorf("256³/128³ runtime ratio = %.2f, want roughly 8x", ratio)
	}
}

// TestModelConcurrentEvaluation asserts the documented read-only contract:
// one Model serves many goroutines and every goroutine sees the exact
// sequential values (run under -race in CI).
func TestModelConcurrentEvaluation(t *testing.T) {
	m := New(machine.XeonE52680v3())
	q := stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(128, 128, 128)}
	vectors := make([]tunespace.Vector, 64)
	want := make([]float64, len(vectors))
	for i := range vectors {
		vectors[i] = tunespace.Vector{Bx: 2 << (i % 9), By: 4 << (i % 5), Bz: 2 << (i % 6), U: i % 9, C: 1 + i%16}
		want[i] = m.Runtime(q, vectors[i])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, tv := range vectors {
					if got := m.Runtime(q, tv); got != want[i] {
						select {
						case errs <- fmt.Errorf("vector %d: concurrent %v != sequential %v", i, got, want[i]):
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestFusionDepthOneIsIdentity pins that K = 0 and K = 1 reproduce the
// pre-fusion model bit-identically (runtime and noise).
func TestFusionDepthOneIsIdentity(t *testing.T) {
	m := model()
	q := stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(192, 192, 192)}
	base := tunespace.Vector{Bx: 32, By: 16, Bz: 8, U: 4, C: 2}
	k0, k1 := base, base
	k0.K = 0
	k1.K = 1
	r := m.Runtime(q, base)
	if m.Runtime(q, k0) != r || m.Runtime(q, k1) != r {
		t.Fatal("K=0/K=1 must evaluate bit-identically to the pre-fusion model")
	}
}

// TestFusionHelpsDRAMBoundSweep pins the tentpole behaviour: on a grid far
// beyond the shared cache, fusing a bandwidth-bound stencil reduces the
// simulated per-step runtime; on a cache-resident grid it does not help.
func TestFusionHelpsDRAMBoundSweep(t *testing.T) {
	m := model()
	m.NoiseAmp = 0
	big := stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(384, 384, 384)}
	tv := tunespace.Vector{Bx: 32, By: 16, Bz: 8, U: 2, C: 2}
	fused := tv
	fused.K = 4
	if rf, r1 := m.Runtime(big, fused), m.Runtime(big, tv); rf >= r1 {
		t.Errorf("fusion on DRAM-bound sweep: fused %g >= unfused %g", rf, r1)
	}
	small := stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(48, 48, 48)}
	if rf, r1 := m.Runtime(small, fused), m.Runtime(small, tv); rf < r1 {
		t.Errorf("fusion on cache-resident sweep should not win: fused %g < unfused %g", rf, r1)
	}
}

// TestFusionDepthPerturbsNoise pins that distinct fused depths get
// independent noise draws (they are distinct executions).
func TestFusionDepthPerturbsNoise(t *testing.T) {
	m := model()
	q := stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(256, 256, 256)}
	tv2 := tunespace.Vector{Bx: 32, By: 16, Bz: 8, U: 2, C: 2, K: 2}
	tv3 := tv2
	tv3.K = 3
	if m.hash01(q, tv2) == m.hash01(q, tv3) {
		t.Error("different fusion depths share a noise draw")
	}
}
