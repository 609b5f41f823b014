package exec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/shape"
	"repro/internal/tunespace"
)

// refreshPeriodic fills every halo cell with its wrapped interior value,
// wrapping all coordinates at once (corners included) — the same rule
// driver.Simulation applies between sequential steps.
func refreshPeriodic[T grid.Float](g *grid.Grid[T]) {
	d := g.Data()
	for z := -g.HaloZ; z < g.NZ+g.HaloZ; z++ {
		for y := -g.Halo; y < g.NY+g.Halo; y++ {
			for x := -g.Halo; x < g.NX+g.Halo; x++ {
				if x >= 0 && x < g.NX && y >= 0 && y < g.NY && z >= 0 && z < g.NZ {
					continue
				}
				d[g.Index(x, y, z)] = d[g.Index(wrapInt(x, g.NX), wrapInt(y, g.NY), wrapInt(z, g.NZ))]
			}
		}
	}
}

func pt(x, y, z int) shape.Point { return shape.Point{X: x, Y: y, Z: z} }

// boxPoints enumerates the unit box neighbourhood in (z, y, x) order; zr is
// the z radius (0 for the 2-D 3×3 box, 1 for the 3×3×3 box).
func boxPoints(zr int) []shape.Point {
	var out []shape.Point
	for z := -zr; z <= zr; z++ {
		for y := -1; y <= 1; y++ {
			for x := -1; x <= 1; x++ {
				out = append(out, pt(x, y, z))
			}
		}
	}
	return out
}

// fusedTestKernels covers the 7- and 5-point stars, the 3-point row, the
// 3×3 and 3×3×3 boxes and radius-2 asymmetric kernels in both
// dimensionalities. threeD selects the grid shape.
func fusedTestKernels() []struct {
	k      *LinearKernel
	threeD bool
} {
	return []struct {
		k      *LinearKernel
		threeD bool
	}{
		{&LinearKernel{Name: "t-star7", Buffers: 1, Terms: []Term{
			{0, pt(0, 0, 0), -6.1}, {0, pt(1, 0, 0), 1.01}, {0, pt(-1, 0, 0), 0.99},
			{0, pt(0, 1, 0), 1.02}, {0, pt(0, -1, 0), 0.98}, {0, pt(0, 0, 1), 1.03}, {0, pt(0, 0, -1), 0.97},
		}}, true},
		{&LinearKernel{Name: "t-star5", Buffers: 1, Terms: []Term{
			{0, pt(0, 0, 0), -4.05}, {0, pt(1, 0, 0), 1.01}, {0, pt(-1, 0, 0), 0.99},
			{0, pt(0, 1, 0), 1.02}, {0, pt(0, -1, 0), 0.98},
		}}, false},
		{&LinearKernel{Name: "t-row3", Buffers: 1, Terms: []Term{
			{0, pt(0, 0, 0), 0.52}, {0, pt(1, 0, 0), 0.23}, {0, pt(-1, 0, 0), 0.27},
		}}, true},
		{&LinearKernel{Name: "t-box9", Buffers: 1, Terms: func() []Term {
			var ts []Term
			for i, p := range boxPoints(0) {
				ts = append(ts, Term{0, p, 0.1 + 0.01*float64(i)})
			}
			return ts
		}()}, false},
		{&LinearKernel{Name: "t-box27", Buffers: 1, Terms: func() []Term {
			var ts []Term
			for i, p := range boxPoints(1) {
				ts = append(ts, Term{0, p, 0.03 + 0.002*float64(i)})
			}
			return ts
		}()}, true},
		// Radius-2 asymmetric kernels exercise a stream radius of 2 (ring
		// size 6, skew 5).
		{&LinearKernel{Name: "t-gen3", Buffers: 1, Terms: []Term{
			{0, pt(0, 0, 0), 0.4}, {0, pt(2, 0, 0), 0.13}, {0, pt(0, -2, 0), 0.17},
			{0, pt(-1, 1, 1), 0.11}, {0, pt(0, 0, -2), 0.19},
		}}, true},
		{&LinearKernel{Name: "t-gen2", Buffers: 1, Terms: []Term{
			{0, pt(0, 0, 0), 0.4}, {0, pt(-2, 1, 0), 0.21}, {0, pt(1, -2, 0), 0.23}, {0, pt(2, 2, 0), 0.07},
		}}, false},
	}
}

// runFusedCase advances in by K steps twice — sequentially through
// Runner.Run with periodic halo refreshes between steps, and in one run of
// the program Compile returns for tv (a wavefront for K ≥ 2) — and requires
// bit-for-bit identical interiors.
func runFusedCase[T grid.Float](t *testing.T, r *Runner[T], k *LinearKernel, nx, ny, nz int, tv tunespace.Vector) {
	t.Helper()
	halo := k.MaxOffset()
	haloZ := halo
	if nz == 1 {
		haloZ = 0
	}
	K := tv.EffFuse()

	cur := grid.NewOf[T](nx, ny, nz, halo, haloZ)
	cur.FillPattern()
	nxt := grid.NewOf[T](nx, ny, nz, halo, haloZ)
	for s := 0; s < K; s++ {
		refreshPeriodic(cur)
		if err := r.Run(k, nxt, []*grid.Grid[T]{cur}, tv); err != nil {
			t.Fatalf("%s: sequential step %d: %v", k.Name, s, err)
		}
		cur, nxt = nxt, cur
	}

	in := grid.NewOf[T](nx, ny, nz, halo, haloZ)
	in.FillPattern()
	refreshPeriodic(in)
	out := grid.NewOf[T](nx, ny, nz, halo, haloZ)
	pr, err := r.Compile(k, out, []*grid.Grid[T]{in}, tv)
	if err != nil {
		t.Fatalf("%s: Compile: %v", k.Name, err)
	}
	if pr.Steps() != K {
		t.Fatalf("%s: Steps() = %d, want %d", k.Name, pr.Steps(), K)
	}
	if err := pr.Run(out, []*grid.Grid[T]{in}); err != nil {
		t.Fatalf("%s: fused run: %v", k.Name, err)
	}

	want, got := cur.Data(), out.Data()
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := out.Index(x, y, z)
				if math.Float64bits(float64(want[i])) != math.Float64bits(float64(got[i])) {
					t.Fatalf("%s n=%dx%dx%d %v: (%d,%d,%d) fused %v != sequential %v (not bit-identical)",
						k.Name, nx, ny, nz, tv, x, y, z, got[i], want[i])
				}
			}
		}
	}
}

// TestFusedMatchesSequential is the bit-identity property: a fused K-step
// sweep equals K sequential runner steps with periodic halo refreshes, for
// every specialization class, both dimensionalities, K ∈ {1..4}, several
// unroll/chunk settings, and both element types. Stream extents smaller than
// K·radius force multi-wrap extension planes.
func TestFusedMatchesSequential(t *testing.T) {
	r64 := NewRunner()
	defer r64.Close()
	r32 := NewRunnerOf[float32]()
	defer r32.Close()
	for _, tc := range fusedTestKernels() {
		sizes := [][3]int{{12, 7, 9}, {6, 5, 3}}
		if !tc.threeD {
			sizes = [][3]int{{13, 11, 1}, {5, 3, 1}}
		}
		if r := tc.k.MaxOffset(); r > 1 {
			// Keep every axis at least the kernel radius wide.
			sizes = [][3]int{{12, 7, 9}, {7, 5, 2}}
			if !tc.threeD {
				sizes = [][3]int{{13, 11, 1}, {7, 2, 1}}
			}
		}
		for _, sz := range sizes {
			for K := 1; K <= tunespace.MaxFuse; K++ {
				for _, uc := range [][2]int{{0, 1}, {2, 2}, {4, 1}} {
					tv := tunespace.Vector{Bx: 8, By: 4, Bz: 2, U: uc[0], C: uc[1], K: K}
					if sz[2] == 1 {
						tv.Bz = 1
					}
					name := fmt.Sprintf("%s/%dx%dx%d/k%d/u%d", tc.k.Name, sz[0], sz[1], sz[2], K, uc[0])
					t.Run(name+"/f64", func(t *testing.T) {
						runFusedCase(t, r64, tc.k, sz[0], sz[1], sz[2], tv)
					})
					t.Run(name+"/f32", func(t *testing.T) {
						runFusedCase(t, r32, tc.k, sz[0], sz[1], sz[2], tv)
					})
				}
			}
		}
	}
}

// TestFusedPlanarShapesOn3DGrids runs the 2-D shapes star5 and box9 through
// wavefront programs on 3-D grids, where the stream axis is z and the stream
// radius is zero: every row reads one source plane, with the y neighbours at
// in-plane offsets.
func TestFusedPlanarShapesOn3DGrids(t *testing.T) {
	r64 := NewRunner()
	defer r64.Close()
	r32 := NewRunnerOf[float32]()
	defer r32.Close()
	for _, k := range []*LinearKernel{star5Kernel(), box9Kernel()} {
		for _, K := range []int{1, 2, 3} {
			tv := tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 2, C: 1, K: K}
			runFusedCase(t, r64, k, 9, 7, 6, tv)
			runFusedCase(t, r32, k, 9, 7, 6, tv)
		}
	}
}

// TestFusedSpecializationSelected pins that every fused test kernel, on its
// own grid shape, runs the row body the CPU picks in both engines.
func TestFusedSpecializationSelected(t *testing.T) {
	for _, tc := range fusedTestKernels() {
		nz := 1
		if tc.threeD {
			nz = 8
		}
		checkBodyIsCPUChoice(t, tc.k, nz, true)
	}
}

// TestCompileFallsBackToOneStep covers the vectors Compile cannot fuse:
// K=0 and K=1, a multi-buffer kernel at any depth and a domain narrower
// than the kernel radius all compile the one-step program, one cache entry
// per (kernel, geometry, blocking). A wavefront program still rejects
// aliased input and output.
func TestCompileFallsBackToOneStep(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	tv := func(k int) tunespace.Vector { return tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1, K: k} }
	oneStep := func(k *LinearKernel, out *grid.Grid[float64], ins []*grid.Grid[float64], depths ...int) {
		t.Helper()
		before, _ := r.CacheStats()
		var first *Program[float64]
		for _, K := range depths {
			pr, err := r.Compile(k, out, ins, tv(K))
			if err != nil {
				t.Fatalf("%s K=%d: %v", k.Name, K, err)
			}
			if pr.Steps() != 1 || pr.wave != nil {
				t.Fatalf("%s K=%d: Steps() = %d, want the one-step program", k.Name, K, pr.Steps())
			}
			if first == nil {
				first = pr
			} else if pr != first {
				t.Fatalf("%s K=%d: compiled a second one-step program", k.Name, K)
			}
		}
		after, _ := r.CacheStats()
		if misses := after.Misses - before.Misses; misses != 1 {
			t.Fatalf("%s depths %v: %d program-cache misses, want 1", k.Name, depths, misses)
		}
	}

	wave := &LinearKernel{Name: "t-wave", Buffers: 2, Terms: []Term{
		{0, pt(0, 0, 0), 2}, {1, pt(0, 0, 0), -1}, {0, pt(1, 0, 0), 0.1},
	}}
	oneStep(wave, grid.New(8, 8, 8, 1, 1), []*grid.Grid[float64]{grid.New(8, 8, 8, 1, 1), grid.New(8, 8, 8, 1, 1)}, 0, 1, 3)

	wide := &LinearKernel{Name: "t-wide", Buffers: 1, Terms: []Term{
		{0, pt(0, 0, 0), 0.5}, {0, pt(3, 0, 0), 0.25}, {0, pt(-3, 0, 0), 0.25},
	}}
	oneStep(wide, grid.New(2, 8, 8, 3, 3), []*grid.Grid[float64]{grid.New(2, 8, 8, 3, 3)}, 2, 1)

	okOut := grid.New(8, 8, 8, 3, 3)
	okIn := grid.New(8, 8, 8, 3, 3)
	before, _ := r.CacheStats()
	pr, err := r.Compile(wide, okOut, []*grid.Grid[float64]{okIn}, tv(2))
	if err != nil {
		t.Fatalf("Compile rejected a valid radius-3 kernel: %v", err)
	}
	if pr.Steps() != 2 || pr.wave == nil {
		t.Fatalf("K=2 on a fusable kernel: Steps() = %d, want a 2-step wavefront", pr.Steps())
	}
	if again, _ := r.Compile(wide, okOut, []*grid.Grid[float64]{okIn}, tv(2)); again != pr {
		t.Fatal("recompiling the wavefront built a second program")
	}
	if after, _ := r.CacheStats(); after.Misses-before.Misses != 1 || after.Hits-before.Hits != 1 {
		t.Fatalf("wavefront compiles counted %+v -> %+v, want one miss and one hit", before, after)
	}
	if err := pr.Run(okOut, []*grid.Grid[float64]{okOut}); err == nil {
		t.Fatal("wavefront Run accepted aliased input and output")
	}
}

// TestRunCompilesOneStepAtEveryDepth pins that Runner.Run always runs one
// step: the same kernel at K=0..3 shares one cached program and matches
// Reference bit for bit.
func TestRunCompilesOneStepAtEveryDepth(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	k := fusedTestKernels()[0].k
	in := grid.New(12, 7, 9, 1, 1)
	in.FillPattern()
	want := grid.New(12, 7, 9, 1, 1)
	if err := r.Reference(k, want, []*grid.Grid[float64]{in}); err != nil {
		t.Fatal(err)
	}
	for K := 0; K <= 3; K++ {
		got := grid.New(12, 7, 9, 1, 1)
		if err := r.Run(k, got, []*grid.Grid[float64]{in}, tunespace.Vector{Bx: 8, By: 4, Bz: 2, U: 2, C: 1, K: K}); err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
		for i, v := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("K=%d: element %d = %v, Reference %v", K, i, got.Data()[i], v)
			}
		}
	}
	if progs, _ := r.CacheStats(); progs.Misses != 1 || progs.Hits != 3 {
		t.Fatalf("program cache %+v, want 1 miss and 3 hits", progs)
	}
}

// TestFusedRunSteadyStateAllocs pins the zero-allocation property of the
// wavefront hot path: after compilation, repeated Runs allocate nothing.
func TestFusedRunSteadyStateAllocs(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	for _, tc := range fusedTestKernels() {
		nz := 12
		if !tc.threeD {
			nz = 1
		}
		halo := tc.k.MaxOffset()
		haloZ := halo
		if nz == 1 {
			haloZ = 0
		}
		out := grid.New(16, 16, nz, halo, haloZ)
		in := []*grid.Grid[float64]{grid.New(16, 16, nz, halo, haloZ)}
		in[0].FillPattern()
		refreshPeriodic(in[0])
		tv := tunespace.Vector{Bx: 8, By: 8, Bz: 4, U: 2, C: 1, K: 3}
		if nz == 1 {
			tv.Bz = 1
		}
		pr, err := r.Compile(tc.k, out, in, tv)
		if err != nil {
			t.Fatalf("%s: %v", tc.k.Name, err)
		}
		if pr.Steps() != 3 {
			t.Fatalf("%s: Steps() = %d, want 3", tc.k.Name, pr.Steps())
		}
		if err := pr.Run(out, in); err != nil {
			t.Fatalf("%s: warmup run: %v", tc.k.Name, err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := pr.Run(out, in); err != nil {
				t.Fatalf("%s: %v", tc.k.Name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: fused Run allocates %.1f objects per call in steady state, want 0", tc.k.Name, allocs)
		}
	}
}

// TestWavefrontProgramCacheBounded compiles three times the program bound of
// one-step and wavefront programs through the one program cache: it must
// stay within its count and scratch bounds, and its scratch count must equal
// the scratch its programs hold.
func TestWavefrontProgramCacheBounded(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	k := fusedTestKernels()[0].k
	out := grid.New(8, 8, 8, 1, 1)
	in := []*grid.Grid[float64]{grid.New(8, 8, 8, 1, 1)}
	for i := 0; i < 3*maxCachedPrograms; i++ {
		tv := tunespace.Vector{Bx: 2 + i%16, By: 2 + i/16%16, Bz: 2 + i/256, U: 0, C: 1, K: 1 + i%tunespace.MaxFuse}
		if _, err := r.Compile(k, out, in, tv); err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
	}
	r.mu.Lock()
	n, elems, sum := len(r.progs), r.cachedScratch, 0
	for _, pr := range r.progs {
		sum += pr.scratchElems()
	}
	r.mu.Unlock()
	if n > maxCachedPrograms {
		t.Errorf("program cache holds %d entries, bound is %d", n, maxCachedPrograms)
	}
	if elems > maxCachedScratch || elems != sum {
		t.Errorf("program cache counts %d scratch elems, holds %d, bound is %d", elems, sum, maxCachedScratch)
	}
	if progs, _ := r.CacheStats(); progs.Evictions == 0 {
		t.Error("no program was evicted")
	}
}
