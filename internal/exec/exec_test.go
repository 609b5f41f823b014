package exec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/shape"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// termShape returns the access pattern of a kernel's terms.
func termShape(k *LinearKernel) *shape.Shape {
	s := shape.New()
	for _, t := range k.Terms {
		s.Add(t.Offset, 1)
	}
	return s
}

// buildWorkspace allocates an output grid and input buffers for a kernel.
func buildWorkspace(t *testing.T, k *LinearKernel, nx, ny, nz int) (*grid.Grid[float64], []*grid.Grid[float64]) {
	t.Helper()
	halo := k.MaxOffset()
	haloZ := halo
	if nz == 1 {
		haloZ = 0
	}
	out := grid.New(nx, ny, nz, halo, haloZ)
	var ins []*grid.Grid[float64]
	for b := 0; b < k.Buffers; b++ {
		g := grid.New(nx, ny, nz, halo, haloZ)
		g.FillPattern()
		// Make buffers distinguishable so buffer mix-ups fail tests.
		for i, d := 0, g.Data(); i < len(d); i++ {
			d[i] += float64(b) * 0.311
		}
		ins = append(ins, g)
	}
	return out, ins
}

func TestAllBenchmarkKernelsMatchReference(t *testing.T) {
	r := NewRunner()
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{
		"blur", "edge", "game-of-life", "wave-1", "tricubic",
		"divergence", "gradient", "laplacian", "laplacian6",
	} {
		sk, err := stencil.KernelByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k := Executable(sk)
		if err := k.Validate(); err != nil {
			t.Fatalf("%s: invalid kernel: %v", name, err)
		}
		nx, ny, nz := 40, 36, 20
		if k.MaxOffset() > 0 && name == "blur" || name == "edge" || name == "game-of-life" {
			nz = 1
		}
		ref, ins := buildWorkspace(t, k, nx, ny, nz)
		if err := r.Reference(k, ref, ins); err != nil {
			t.Fatalf("%s: reference failed: %v", name, err)
		}
		dims := 3
		if nz == 1 {
			dims = 2
		}
		space := tunespace.NewSpace(dims)
		for trial := 0; trial < 10; trial++ {
			tv := space.Random(rng)
			got := grid.New(nx, ny, nz, k.MaxOffset(), ref.HaloZ)
			if err := r.Run(k, got, ins, tv); err != nil {
				t.Fatalf("%s %v: run failed: %v", name, tv, err)
			}
			if d := grid.MaxAbsDiff(ref, got); d > 1e-12 {
				t.Fatalf("%s %v: max diff %g vs reference", name, tv, d)
			}
		}
	}
}

func TestUnrollFactorsAllMatch(t *testing.T) {
	r := NewRunner()
	k := Executable(stencil.Laplacian())
	ref, ins := buildWorkspace(t, k, 33, 17, 9) // odd sizes exercise remainders
	if err := r.Reference(k, ref, ins); err != nil {
		t.Fatal(err)
	}
	for u := 0; u <= 8; u++ {
		got := grid.New(33, 17, 9, k.MaxOffset(), k.MaxOffset())
		tv := tunespace.Vector{Bx: 16, By: 8, Bz: 4, U: u, C: 2}
		if err := r.Run(k, got, ins, tv); err != nil {
			t.Fatalf("u=%d: %v", u, err)
		}
		if d := grid.MaxAbsDiff(ref, got); d > 1e-12 {
			t.Fatalf("u=%d: diff %g", u, d)
		}
	}
}

func TestBlocksLargerThanDomain(t *testing.T) {
	r := NewRunner()
	k := Executable(stencil.Gradient())
	ref, ins := buildWorkspace(t, k, 20, 20, 20)
	if err := r.Reference(k, ref, ins); err != nil {
		t.Fatal(err)
	}
	got := grid.New(20, 20, 20, k.MaxOffset(), k.MaxOffset())
	tv := tunespace.Vector{Bx: 1024, By: 1024, Bz: 1024, U: 4, C: 16}
	if err := r.Run(k, got, ins, tv); err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(ref, got); d > 1e-12 {
		t.Fatalf("diff %g", d)
	}
}

func TestSingleWorker(t *testing.T) {
	r := &Runner[float64]{Workers: 1}
	k := Executable(stencil.Blur())
	ref, ins := buildWorkspace(t, k, 64, 48, 1)
	if err := r.Reference(k, ref, ins); err != nil {
		t.Fatal(err)
	}
	got := grid.New(64, 48, 1, k.MaxOffset(), 0)
	if err := r.Run(k, got, ins, tunespace.Vector{Bx: 16, By: 16, Bz: 1, U: 2, C: 3}); err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(ref, got); d > 1e-12 {
		t.Fatalf("diff %g", d)
	}
}

func TestValidationErrors(t *testing.T) {
	r := NewRunner()
	k := Executable(stencil.Laplacian())
	out, ins := buildWorkspace(t, k, 16, 16, 16)

	// Wrong buffer count.
	if err := r.Run(k, out, nil, tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1}); err == nil {
		t.Error("missing buffers accepted")
	}
	// Invalid tuning vector.
	if err := r.Run(k, out, ins, tunespace.Vector{Bx: 0, By: 8, Bz: 8, U: 0, C: 1}); err == nil {
		t.Error("invalid tuning accepted")
	}
	// Geometry mismatch.
	bad := grid.New(8, 16, 16, 1, 1)
	if err := r.Run(k, out, []*grid.Grid[float64]{bad}, tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1}); err == nil {
		t.Error("geometry mismatch accepted")
	}
	// Insufficient halo.
	thin := grid.New(16, 16, 16, 0, 0)
	if err := r.Run(k, out, []*grid.Grid[float64]{thin}, tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1}); err == nil {
		t.Error("insufficient halo accepted")
	}
	// Empty kernel.
	empty := &LinearKernel{Name: "empty", Buffers: 1}
	if err := empty.Validate(); err == nil {
		t.Error("empty kernel validated")
	}
	// Out-of-range buffer reference.
	badBuf := &LinearKernel{Name: "bad", Buffers: 1, Terms: []Term{{Buffer: 2, Weight: 1}}}
	if err := badBuf.Validate(); err == nil {
		t.Error("out-of-range buffer reference validated")
	}
}

func TestLinearKernelShapeAndOffset(t *testing.T) {
	k := Executable(stencil.Laplacian6())
	if got := k.MaxOffset(); got != 3 {
		t.Errorf("MaxOffset = %d, want 3", got)
	}
	s := termShape(k)
	if s.Size() != 19 {
		t.Errorf("shape size = %d, want 19", s.Size())
	}
	if !s.Contains(shape.Point{X: 3}) || s.Contains(shape.Point{X: 1, Y: 1}) {
		t.Error("laplacian6 shape wrong")
	}
}

func TestDivergenceUsesAllThreeBuffers(t *testing.T) {
	// Zeroing one buffer must change the result: proves per-buffer wiring.
	r := NewRunner()
	k := Executable(stencil.Divergence())
	out, ins := buildWorkspace(t, k, 16, 16, 16)
	if err := r.Reference(k, out, ins); err != nil {
		t.Fatal(err)
	}
	sumFull := out.InteriorSum()
	for b := 0; b < 3; b++ {
		mod := make([]*grid.Grid[float64], 3)
		for i := range ins {
			mod[i] = ins[i].Clone()
		}
		mod[b].Fill(0)
		out2 := grid.New(16, 16, 16, k.MaxOffset(), k.MaxOffset())
		if err := r.Reference(k, out2, mod); err != nil {
			t.Fatal(err)
		}
		if math.Abs(out2.InteriorSum()-sumFull) < 1e-12 {
			t.Errorf("zeroing buffer %d did not change divergence output", b)
		}
	}
}

func TestExecutableGenericConversion(t *testing.T) {
	sk := &stencil.Kernel{
		Name:    "generic",
		Shape:   shape.Laplacian3D(2),
		Buffers: 2,
		Type:    stencil.Float32,
	}
	lk := Executable(sk)
	if err := lk.Validate(); err != nil {
		t.Fatalf("converted kernel invalid: %v", err)
	}
	if len(lk.Terms) != sk.Shape.TotalAccesses() {
		t.Errorf("terms = %d, want %d", len(lk.Terms), sk.Shape.TotalAccesses())
	}
	// Weights sum to 1 (averaging kernel).
	var sum float64
	for _, term := range lk.Terms {
		sum += term.Weight
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weight sum = %v, want 1", sum)
	}
	// Runs correctly.
	r := NewRunner()
	ref, ins := buildWorkspace(t, lk, 24, 24, 24)
	if err := r.Reference(lk, ref, ins); err != nil {
		t.Fatal(err)
	}
	got := grid.New(24, 24, 24, lk.MaxOffset(), lk.MaxOffset())
	if err := r.Run(lk, got, ins, tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 4, C: 2}); err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(ref, got); d > 1e-12 {
		t.Fatalf("diff %g", d)
	}
}

func TestExecutableFallsBackToGeneric(t *testing.T) {
	sk := &stencil.Kernel{Name: "custom-thing", Shape: shape.Square(1), Buffers: 1, Type: stencil.Float32}
	lk := Executable(sk)
	if lk.Name != "custom-thing" {
		t.Errorf("fallback name = %q", lk.Name)
	}
	known := Executable(stencil.Blur())
	if len(known.Terms) != 25 || known.Terms[0].Weight != 1.0/25 {
		t.Error("Executable should use the textbook blur")
	}
	// A custom structure under a Table III name is not that kernel: the
	// 3-D laplacian's z taps would read outside a planar grid.
	borrowed := &stencil.Kernel{Name: "laplacian", Shape: shape.Square(1), Buffers: 1, Type: stencil.Float64}
	if lk := Executable(borrowed); !termShape(lk).Equal(borrowed.Shape) {
		t.Errorf("a planar kernel named laplacian got the terms %v", lk.Terms)
	}
}

func TestMeasurerProducesPositiveTimes(t *testing.T) {
	m := NewMeasurer()
	m.Repetitions = 1
	q := stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(32, 32, 32)}
	secs, err := m.Measure(q, tunespace.Vector{Bx: 16, By: 16, Bz: 8, U: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	if secs <= 0 {
		t.Errorf("measured %v seconds", secs)
	}
	// Workspace reuse: a second call must not error and should reuse grids.
	if _, err := m.Measure(q, tunespace.Vector{Bx: 32, By: 8, Bz: 4, U: 0, C: 1}); err != nil {
		t.Fatal(err)
	}
	if len(m.ws64) != 1 {
		t.Errorf("workspace cache size = %d, want 1", len(m.ws64))
	}
}

func TestMeasurerRejectsInvalidTuning(t *testing.T) {
	m := NewMeasurer()
	m.Repetitions = 1
	q := stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(16, 16, 16)}
	if _, err := m.Measure(q, tunespace.Vector{Bx: -1, By: 8, Bz: 8, U: 0, C: 1}); err == nil {
		t.Error("invalid tuning accepted by measurer")
	}
}

func TestDecomposeCoversDomainExactly(t *testing.T) {
	out := grid.New(30, 20, 10, 1, 1)
	tiles := decompose(geomOf(out), tunespace.Vector{Bx: 7, By: 8, Bz: 3, U: 0, C: 1})
	covered := make(map[[3]int]int)
	for _, tl := range tiles {
		if tl.x0 >= tl.x1 || tl.y0 >= tl.y1 || tl.z0 >= tl.z1 {
			t.Fatalf("degenerate tile %+v", tl)
		}
		for z := tl.z0; z < tl.z1; z++ {
			for y := tl.y0; y < tl.y1; y++ {
				for x := tl.x0; x < tl.x1; x++ {
					covered[[3]int{x, y, z}]++
				}
			}
		}
	}
	if len(covered) != 30*20*10 {
		t.Fatalf("covered %d points, want %d", len(covered), 30*20*10)
	}
	for p, n := range covered {
		if n != 1 {
			t.Fatalf("point %v covered %d times", p, n)
		}
	}
}

func TestChunkSchedulingAllChunksMatch(t *testing.T) {
	r := NewRunner()
	k := Executable(stencil.Edge())
	ref, ins := buildWorkspace(t, k, 50, 50, 1)
	if err := r.Reference(k, ref, ins); err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{1, 2, 5, 16} {
		got := grid.New(50, 50, 1, k.MaxOffset(), 0)
		if err := r.Run(k, got, ins, tunespace.Vector{Bx: 8, By: 8, Bz: 1, U: 2, C: c}); err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		if d := grid.MaxAbsDiff(ref, got); d > 1e-12 {
			t.Fatalf("c=%d: diff %g", c, d)
		}
	}
}

func TestFastPathDetection(t *testing.T) {
	mk := func(k *LinearKernel, nx int) *plan[float64] {
		var ins []*grid.Grid[float64]
		for b := 0; b < k.Buffers; b++ {
			ins = append(ins, grid.New(nx, 8, 8, k.MaxOffset(), k.MaxOffset()))
		}
		return buildPlan(k, ins)
	}
	// 7-point laplacian must hit the star7 fast path.
	lap := Executable(stencil.Laplacian())
	if fp := detectFast(lap, mk(lap, 8)); fp == nil || fp.kind != fastStar7 {
		t.Error("laplacian should use the star7 fast path")
	}
	// Gradient (6 points) must not.
	gr := Executable(stencil.Gradient())
	if fp := detectFast(gr, mk(gr, 8)); fp != nil {
		t.Error("gradient should not match a fast path")
	}
	// Multi-buffer kernels never specialize.
	dv := Executable(stencil.Divergence())
	if fp := detectFast(dv, mk(dv, 8)); fp != nil {
		t.Error("divergence should not match a fast path")
	}
	// A 3-point x row stencil matches row3.
	row := &LinearKernel{Name: "r3", Buffers: 1, Terms: []Term{
		{Offset: shape.Point{X: -1}, Weight: 0.25},
		{Offset: shape.Point{}, Weight: 0.5},
		{Offset: shape.Point{X: 1}, Weight: 0.25},
	}}
	if fp := detectFast(row, mk(row, 8)); fp == nil || fp.kind != fastRow3 {
		t.Error("3-point row should use the row3 fast path")
	}
	// A 7-term kernel with a diagonal offset must NOT match star7.
	diag := &LinearKernel{Name: "d7", Buffers: 1}
	pts := []shape.Point{{}, {X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {Z: 1}, {X: 1, Y: 1}}
	for _, p := range pts {
		diag.Terms = append(diag.Terms, Term{Offset: p, Weight: 1})
	}
	if fp := detectFast(diag, mk(diag, 8)); fp != nil {
		t.Error("diagonal 7-term kernel must not match star7")
	}
}

func TestFastPathMatchesGenericResults(t *testing.T) {
	// The specialized bodies must be bit-identical to the generic path.
	r := NewRunner()
	for _, k := range []*LinearKernel{
		Executable(stencil.Laplacian()),
		{Name: "r3", Buffers: 1, Terms: []Term{
			{Offset: shape.Point{X: -1}, Weight: 0.3},
			{Offset: shape.Point{}, Weight: 0.4},
			{Offset: shape.Point{X: 1}, Weight: 0.3},
		}},
	} {
		ref, ins := buildWorkspace(t, k, 37, 19, 11)
		if err := r.Reference(k, ref, ins); err != nil {
			t.Fatal(err)
		}
		for _, u := range []int{0, 2, 4, 8} {
			got := grid.New(37, 19, 11, k.MaxOffset(), k.MaxOffset())
			tv := tunespace.Vector{Bx: 16, By: 8, Bz: 4, U: u, C: 2}
			if err := r.Run(k, got, ins, tv); err != nil {
				t.Fatalf("%s u=%d: %v", k.Name, u, err)
			}
			if d := grid.MaxAbsDiff(ref, got); d > 1e-12 {
				t.Fatalf("%s u=%d: fast path diff %g", k.Name, u, d)
			}
		}
	}
}
