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
// Runner.Run with periodic halo refreshes between steps, and in one fused
// sweep — and requires bit-for-bit identical interiors.
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
	fp, err := r.CompileFused(k, out, in, tv)
	if err != nil {
		t.Fatalf("%s: CompileFused: %v", k.Name, err)
	}
	if fp.Steps() != K {
		t.Fatalf("%s: Steps() = %d, want %d", k.Name, fp.Steps(), K)
	}
	if err := fp.Run(out, in); err != nil {
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

// TestCompileFusedRejects covers the ineligible configurations: multi-buffer
// kernels and domains narrower than the kernel radius.
func TestCompileFusedRejects(t *testing.T) {
	r := NewRunner()
	defer r.Close()

	wave := &LinearKernel{Name: "t-wave", Buffers: 2, Terms: []Term{
		{0, pt(0, 0, 0), 2}, {1, pt(0, 0, 0), -1}, {0, pt(1, 0, 0), 0.1},
	}}
	if CanFuse(wave) {
		t.Fatal("CanFuse should reject multi-buffer kernels")
	}
	out := grid.New(8, 8, 8, 1, 1)
	in := grid.New(8, 8, 8, 1, 1)
	if _, err := r.CompileFused(wave, out, in, tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1, K: 2}); err == nil {
		t.Fatal("CompileFused accepted a multi-buffer kernel")
	}

	wide := &LinearKernel{Name: "t-wide", Buffers: 1, Terms: []Term{
		{0, pt(0, 0, 0), 0.5}, {0, pt(3, 0, 0), 0.25}, {0, pt(-3, 0, 0), 0.25},
	}}
	small := grid.New(2, 8, 8, 3, 3)
	small2 := grid.New(2, 8, 8, 3, 3)
	if _, err := r.CompileFused(wide, small, small2, tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1, K: 2}); err == nil {
		t.Fatal("CompileFused accepted a domain narrower than the kernel radius")
	}

	okOut := grid.New(8, 8, 8, 3, 3)
	okIn := grid.New(8, 8, 8, 3, 3)
	fp, err := r.CompileFused(wide, okOut, okIn, tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1, K: 2})
	if err != nil {
		t.Fatalf("CompileFused rejected a valid radius-3 kernel: %v", err)
	}
	if err := fp.Run(okOut, okOut); err == nil {
		t.Fatal("fused Run accepted aliased input and output")
	}
}

// TestFusedRunSteadyStateAllocs pins the zero-allocation property of the
// fused hot path: after compilation, repeated Runs allocate nothing.
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
		in := grid.New(16, 16, nz, halo, haloZ)
		in.FillPattern()
		refreshPeriodic(in)
		tv := tunespace.Vector{Bx: 8, By: 8, Bz: 4, U: 2, C: 1, K: 3}
		if nz == 1 {
			tv.Bz = 1
		}
		fp, err := r.CompileFused(tc.k, out, in, tv)
		if err != nil {
			t.Fatalf("%s: %v", tc.k.Name, err)
		}
		if err := fp.Run(out, in); err != nil {
			t.Fatalf("%s: warmup run: %v", tc.k.Name, err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := fp.Run(out, in); err != nil {
				t.Fatalf("%s: %v", tc.k.Name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: fused Run allocates %.1f objects per call in steady state, want 0", tc.k.Name, allocs)
		}
	}
}

// TestFusedProgramCacheBounded exercises the fused-cache eviction path.
func TestFusedProgramCacheBounded(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	k := fusedTestKernels()[0].k
	out := grid.New(8, 8, 8, 1, 1)
	in := grid.New(8, 8, 8, 1, 1)
	for i := 0; i < 3*maxCachedFused; i++ {
		tv := tunespace.Vector{Bx: 2 + i%16, By: 2 + i/16, Bz: 2, U: 0, C: 1, K: 1 + i%tunespace.MaxFuse}
		if _, err := r.CompileFused(k, out, in, tv); err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
	}
	r.mu.Lock()
	n, elems := len(r.fprogs), r.cachedFusedElems
	r.mu.Unlock()
	if n > maxCachedFused {
		t.Errorf("fused cache holds %d entries, bound is %d", n, maxCachedFused)
	}
	if elems > maxCachedFusedElems {
		t.Errorf("fused cache holds %d scratch elems, bound is %d", elems, maxCachedFusedElems)
	}
}
