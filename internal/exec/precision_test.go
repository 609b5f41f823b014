package exec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// buildWorkspaceOf is the type-generic twin of buildWorkspace: an output
// grid plus filled, per-buffer-distinguishable input buffers of element
// type T.
func buildWorkspaceOf[T grid.Float](k *LinearKernel, nx, ny, nz int) (*grid.Grid[T], []*grid.Grid[T]) {
	halo := k.MaxOffset()
	haloZ := halo
	if nz == 1 {
		haloZ = 0
	}
	out := grid.NewOf[T](nx, ny, nz, halo, haloZ)
	var ins []*grid.Grid[T]
	for b := 0; b < k.Buffers; b++ {
		g := grid.NewOf[T](nx, ny, nz, halo, haloZ)
		g.FillPattern()
		for i, d := 0, g.Data(); i < len(d); i++ {
			d[i] += T(float64(b) * 0.311)
		}
		ins = append(ins, g)
	}
	return out, ins
}

// TestFloat32RowsMatchReference is the float32 mirror of
// TestGenericRowsMatchReference: random generic-path kernels × halos ×
// 2-D/3-D geometries × tile sizes, asserting the compiled float32 span-walk
// path is bit-for-bit equal to the float32 Reference sweep. Both sides
// accumulate in float32 with plan-order association, so no tolerance is
// needed — this is what "precision-faithful" means for the generic path.
func TestFloat32RowsMatchReference(t *testing.T) {
	r := NewRunnerOf[float32]()
	defer r.Close()
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		dims := 2 + rng.Intn(2)
		halo := 1 + rng.Intn(3)
		k := randomGenericKernel(rng, dims, halo)
		nx, ny := 3+rng.Intn(31), 3+rng.Intn(31)
		nz := 1
		if dims == 3 {
			nz = 3 + rng.Intn(14)
		}
		ref, ins := buildWorkspaceOf[float32](k, nx, ny, nz)
		if err := r.Reference(k, ref, ins); err != nil {
			t.Fatalf("trial %d %s: reference: %v", trial, k.Name, err)
		}
		for probe := 0; probe < 4; probe++ {
			tv := tunespace.Vector{
				Bx: 2 + rng.Intn(40),
				By: 2 + rng.Intn(40),
				Bz: 1,
				U:  rng.Intn(9),
				C:  1 + rng.Intn(8),
			}
			if dims == 3 {
				tv.Bz = 2 + rng.Intn(16)
			}
			got := grid.NewOf[float32](nx, ny, nz, k.MaxOffset(), ref.HaloZ)
			if err := r.Run(k, got, ins, tv); err != nil {
				t.Fatalf("trial %d %s %+v: %v", trial, k.Name, tv, err)
			}
			if d := grid.MaxAbsDiff(ref, got); d != 0 {
				t.Fatalf("trial %d %s %+v: diff %g, want bit-for-bit match", trial, k.Name, tv, d)
			}
		}
	}
}

// TestFloat32FastPathsMatchReference proves that the star and box shapes
// (star7, star5, box9, box27) agree bit-for-bit with the float32 reference.
func TestFloat32FastPathsMatchReference(t *testing.T) {
	r := NewRunnerOf[float32]()
	defer r.Close()
	rng := rand.New(rand.NewSource(17))
	cases := []struct {
		name string
		k    *LinearKernel
		nz   int
	}{
		{"laplacian-star7", Executable(stencil.Laplacian()), 11},
		{"star5", star5Kernel(), 1},
		{"box9-edge", Executable(stencil.Edge()), 1},
		{"box27", box27Kernel(), 9},
	}
	for _, tc := range cases {
		nx, ny := 37, 21
		ref, ins := buildWorkspaceOf[float32](tc.k, nx, ny, tc.nz)
		if err := r.Reference(tc.k, ref, ins); err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		dims := 3
		if tc.nz == 1 {
			dims = 2
		}
		space := tunespace.NewSpace(dims)
		for trial := 0; trial < 8; trial++ {
			tv := space.Random(rng)
			got := grid.NewOf[float32](nx, ny, tc.nz, tc.k.MaxOffset(), ref.HaloZ)
			if err := r.Run(tc.k, got, ins, tv); err != nil {
				t.Fatalf("%s %v: %v", tc.name, tv, err)
			}
			if d := grid.MaxAbsDiff(ref, got); d != 0 {
				t.Fatalf("%s %v: diff %g, want bit-for-bit match", tc.name, tv, d)
			}
		}
	}
}

// maxAbsInterior returns the maximum interior magnitude of a grid as
// float64.
func maxAbsInterior[T grid.Float](g *grid.Grid[T]) float64 {
	var m float64
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				if v := math.Abs(float64(g.At(x, y, z))); v > m {
					m = v
				}
			}
		}
	}
	return m
}

// TestCrossPrecisionAgreement runs every benchmark kernel in both
// precisions and checks the float32 result against the float64 one within
// an analytically justified bound.
//
// Error model: each output point is a left-associated sum of N products
// w_i·x_i. The float32 path converts inputs and weights (one rounding each,
// relative eps32 = 2⁻²⁴) and performs N multiplies and N-1 adds; standard
// forward-error analysis bounds the result by (N+2)·eps32·Σ|w_i x_i| to
// first order. We bound Σ|w_i x_i| by Σ|w_i| · max|x| over the inputs and
// double the whole bound for slack (second-order terms, halo values
// slightly exceeding the interior max used here).
func TestCrossPrecisionAgreement(t *testing.T) {
	r64 := NewRunner()
	r32 := NewRunnerOf[float32]()
	defer r64.Close()
	defer r32.Close()
	const eps32 = 1.0 / (1 << 24)
	for _, name := range []string{
		"blur", "edge", "game-of-life", "wave-1", "tricubic",
		"divergence", "gradient", "laplacian", "laplacian6",
	} {
		sk, err := stencil.KernelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		k := Executable(sk)
		nx, ny, nz := 36, 28, 12
		if name == "blur" || name == "edge" || name == "game-of-life" {
			nz = 1
		}
		out64, ins64 := buildWorkspace(t, k, nx, ny, nz)
		out32, ins32 := buildWorkspaceOf[float32](k, nx, ny, nz)
		tv := tunespace.Vector{Bx: 16, By: 8, Bz: 4, U: 2, C: 2}
		if nz == 1 {
			tv.Bz = 1
		}
		if err := r64.Run(k, out64, ins64, tv); err != nil {
			t.Fatalf("%s float64: %v", name, err)
		}
		if err := r32.Run(k, out32, ins32, tv); err != nil {
			t.Fatalf("%s float32: %v", name, err)
		}

		var sumW, maxIn float64
		for _, term := range k.Terms {
			sumW += math.Abs(term.Weight)
		}
		for _, g := range ins64 {
			if v := maxAbsInterior(g); v > maxIn {
				maxIn = v
			}
		}
		// Halo cells feed the sums too; FillPattern keeps them within ~30%
		// of the interior max, covered by the ×2 slack below.
		tol := 2 * float64(len(k.Terms)+2) * eps32 * sumW * maxIn

		var worst float64
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					d := math.Abs(out64.At(x, y, z) - float64(out32.At(x, y, z)))
					if d > worst {
						worst = d
					}
				}
			}
		}
		if worst > tol {
			t.Errorf("%s: float32 vs float64 diff %g exceeds analytic tolerance %g", name, worst, tol)
		}
		if worst == 0 && name == "blur" {
			// Sanity check on the test itself: a 25-term float32 sum over
			// transcendental inputs rounding identically to float64 at every
			// point would mean we silently ran both sides in one precision.
			t.Errorf("%s: float32 and float64 results are bitwise identical — precision split not exercised", name)
		}
	}
}

// TestMeasurerHonorsDataType asserts the measurer allocates DataType-sized
// workspaces: a Float32 instance populates the float32 workspace cache (and
// its bytes match Len×4 exactly), a Float64 instance of identical geometry
// allocates twice the bytes in the float64 cache, and each engine's program
// cache only sees its own precision.
func TestMeasurerHonorsDataType(t *testing.T) {
	m := NewMeasurer()
	defer m.Close()
	m.Repetitions = 1
	size := stencil.Size3D(16, 16, 16)
	tv := tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1}

	k32 := &stencil.Kernel{Name: "laplacian", Shape: stencil.Laplacian().Shape, Buffers: 1, Type: stencil.Float32}
	if _, err := m.Measure(stencil.Instance{Kernel: k32, Size: size}, tv); err != nil {
		t.Fatal(err)
	}
	b32, b64 := m.WorkspaceBytes()
	if b64 != 0 {
		t.Fatalf("float32 measurement grew the float64 workspace cache (%d bytes)", b64)
	}
	if len(m.ws32) != 1 || len(m.ws64) != 0 {
		t.Fatalf("workspace maps after float32 measure: ws32=%d ws64=%d, want 1/0", len(m.ws32), len(m.ws64))
	}
	var wantBytes int
	for _, w := range m.ws32 {
		wantBytes = (1 + len(w.ins)) * w.out.Len() * 4
	}
	if b32 != wantBytes {
		t.Fatalf("float32 workspace bytes = %d, want %d (Len × 4 per grid)", b32, wantBytes)
	}
	if len(m.Runner32.progs) != 1 || len(m.Runner.progs) != 0 {
		t.Fatalf("program caches after float32 measure: f32=%d f64=%d, want 1/0",
			len(m.Runner32.progs), len(m.Runner.progs))
	}

	// Same kernel structure and geometry declared as Float64: the double
	// cache grows by exactly 2× the float32 bytes.
	if _, err := m.Measure(stencil.Instance{Kernel: stencil.Laplacian(), Size: size}, tv); err != nil {
		t.Fatal(err)
	}
	nb32, nb64 := m.WorkspaceBytes()
	if nb32 != b32 {
		t.Fatalf("float64 measurement changed the float32 cache: %d → %d bytes", b32, nb32)
	}
	if nb64 != 2*b32 {
		t.Fatalf("float64 workspace bytes = %d, want %d (2× the float32 workspace)", nb64, 2*b32)
	}
}

// TestCrossPrecisionMeasureBatch smoke-tests the batched measure path across
// a mixed-precision pair of instances sharing one measurer.
func TestCrossPrecisionMeasureBatch(t *testing.T) {
	m := NewMeasurer()
	defer m.Close()
	m.Repetitions = 1
	tvs := []tunespace.Vector{
		{Bx: 8, By: 8, Bz: 8, U: 0, C: 1},
		{Bx: 16, By: 4, Bz: 4, U: 2, C: 2},
	}
	for _, k := range []*stencil.Kernel{stencil.Tricubic(), stencil.Laplacian()} {
		q := stencil.Instance{Kernel: k, Size: stencil.Size3D(16, 16, 16)}
		secs, err := m.MeasureBatch(q, tvs)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for i, s := range secs {
			if s <= 0 {
				t.Errorf("%s vector %d: measured %v seconds", k.Name, i, s)
			}
		}
	}
}

// TestCompiledRunZeroAllocsFloat32 is the float32 twin of
// TestCompiledRunZeroAllocs: steady-state Run through the float32 engine
// must not allocate for a star, a generic or a multi-buffer kernel.
func TestCompiledRunZeroAllocsFloat32(t *testing.T) {
	r := NewRunnerOf[float32]()
	defer r.Close()
	cases := []struct {
		name string
		k    *LinearKernel
		nz   int
	}{
		{"fastpath-laplacian", Executable(stencil.Laplacian()), 24},
		{"generic-gradient", Executable(stencil.Gradient()), 24},
		{"multibuffer-divergence", Executable(stencil.Divergence()), 24},
		{"generic-blur-2d", Executable(stencil.Blur()), 1},
	}
	for _, tc := range cases {
		out, ins := buildWorkspaceOf[float32](tc.k, 24, 24, tc.nz)
		tv := tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 2, C: 2}
		if tc.nz == 1 {
			tv.Bz = 1
		}
		if err := r.Run(tc.k, out, ins, tv); err != nil { // warm the cache
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := r.Run(tc.k, out, ins, tv); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state float32 Run, want 0", tc.name, allocs)
		}
	}
}

// TestPerTypeGridPoolsDisjoint guards the pooling split: a released float64
// grid must never be handed back for a float32 acquire of the same geometry.
func TestPerTypeGridPoolsDisjoint(t *testing.T) {
	g64 := grid.Acquire(8, 8, 8, 1, 1)
	g64.Fill(5)
	grid.Release(g64)
	g32 := grid.AcquireOf[float32](8, 8, 8, 1, 1)
	defer grid.ReleaseOf(g32)
	if g32.ElemBytes() != 4 {
		t.Fatalf("float32 acquire returned %d-byte elements", g32.ElemBytes())
	}
	for i, v := range g32.Data() {
		if v != 0 {
			t.Fatalf("float32 grid cell %d = %v, want 0 (cross-type pool leak?)", i, v)
		}
	}
}
