package exec

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/shape"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// star5Kernel builds a 2-D 5-point star (centre, +x, -x, +y, -y) with
// distinct weights.
func star5Kernel() *LinearKernel {
	return &LinearKernel{Name: "star5", Buffers: 1, Terms: []Term{
		{Offset: shape.Point{}, Weight: -4.1},
		{Offset: shape.Point{X: 1}, Weight: 1.01},
		{Offset: shape.Point{X: -1}, Weight: 0.98},
		{Offset: shape.Point{Y: 1}, Weight: 1.03},
		{Offset: shape.Point{Y: -1}, Weight: 0.97},
	}}
}

// box9Kernel builds the full 3×3 box in canonical (y, x) order with distinct
// weights (the order Executable gives edge and game-of-life).
func box9Kernel() *LinearKernel {
	k := &LinearKernel{Name: "box9", Buffers: 1}
	w := 0.11
	for y := -1; y <= 1; y++ {
		for x := -1; x <= 1; x++ {
			k.Terms = append(k.Terms, Term{Offset: shape.Point{X: x, Y: y}, Weight: w})
			w += 0.07
		}
	}
	return k
}

// box27Kernel builds the full 3×3×3 box in canonical (z, y, x) order with
// distinct weights.
func box27Kernel() *LinearKernel {
	k := &LinearKernel{Name: "box27", Buffers: 1}
	w := 0.05
	for z := -1; z <= 1; z++ {
		for y := -1; y <= 1; y++ {
			for x := -1; x <= 1; x++ {
				k.Terms = append(k.Terms, Term{Offset: shape.Point{X: x, Y: y, Z: z}, Weight: w})
				w += 0.013
			}
		}
	}
	return k
}

// scramble returns a copy of the kernel with its terms in a shuffled order.
func scramble(k *LinearKernel, seed int64) *LinearKernel {
	rng := rand.New(rand.NewSource(seed))
	c := &LinearKernel{Name: k.Name + "-scrambled", Buffers: k.Buffers}
	c.Terms = append(c.Terms, k.Terms...)
	rng.Shuffle(len(c.Terms), func(i, j int) { c.Terms[i], c.Terms[j] = c.Terms[j], c.Terms[i] })
	return c
}

// TestNewFastPathDetection pins that the 2-D star and box shapes, the 3-D
// box, their scrambled term orders and their near misses all run the row
// body the CPU picks.
func TestNewFastPathDetection(t *testing.T) {
	diag5 := &LinearKernel{Name: "diag5", Buffers: 1}
	for _, p := range []shape.Point{{}, {X: 1}, {X: -1}, {Y: 1}, {X: 1, Y: 1}} {
		diag5.Terms = append(diag5.Terms, Term{Offset: p, Weight: 1})
	}
	hole27 := box27Kernel()
	hole27.Terms[13].Offset = shape.Point{X: 2} // displace the centre
	dup9 := box9Kernel()
	dup9.Terms[8].Offset = shape.Point{} // duplicate centre, missing (1,1)
	multi27 := box27Kernel()
	multi27.Buffers = 2
	multi27.Terms[0].Buffer = 1
	for _, tc := range []struct {
		k  *LinearKernel
		nz int
	}{
		{star5Kernel(), 1},
		{scramble(star5Kernel(), 3), 1},
		{box9Kernel(), 1},
		{Executable(stencil.Edge()), 1},
		{Executable(stencil.GameOfLife()), 1},
		{box27Kernel(), 8},
		{scramble(box27Kernel(), 5), 8},
		{diag5, 1},
		{hole27, 8},
		{dup9, 1},
	} {
		checkBodyIsCPUChoice(t, tc.k, tc.nz, true)
	}
	checkBodyIsCPUChoice(t, multi27, 8, false)
}

// TestNewFastPathsMatchReference proves that the star5, box9 and box27
// shapes, canonically ordered or scrambled, agree bit for bit with the naive
// reference sweep across random tuning vectors.
func TestNewFastPathsMatchReference(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		k    *LinearKernel
		nz   int
	}{
		{"star5", star5Kernel(), 1},
		{"box9", box9Kernel(), 1},
		{"box9-edge", Executable(stencil.Edge()), 1},
		{"box27", box27Kernel(), 13},
		{"star5-scrambled", scramble(star5Kernel(), 11), 1},
		{"box9-scrambled", scramble(box9Kernel(), 12), 1},
		{"box27-scrambled", scramble(box27Kernel(), 13), 13},
	}
	for _, tc := range cases {
		nx, ny := 41, 23
		ref, ins := buildWorkspace(t, tc.k, nx, ny, tc.nz)
		if err := r.Reference(tc.k, ref, ins); err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		dims := 3
		if tc.nz == 1 {
			dims = 2
		}
		space := tunespace.NewSpace(dims)
		for trial := 0; trial < 12; trial++ {
			tv := space.Random(rng)
			got := grid.New(nx, ny, tc.nz, tc.k.MaxOffset(), ref.HaloZ)
			if err := r.Run(tc.k, got, ins, tv); err != nil {
				t.Fatalf("%s %v: %v", tc.name, tv, err)
			}
			if d := grid.MaxAbsDiff(ref, got); d != 0 {
				t.Fatalf("%s %v: diff %g, want bit-for-bit match", tc.name, tv, d)
			}
		}
	}
}

// TestCompiledRunZeroAllocs is the steady-state allocation regression test:
// once a program is cached, Run must not allocate — for a star, a generic
// and a multi-buffer kernel alike.
func TestCompiledRunZeroAllocs(t *testing.T) {
	r := NewRunner()
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
		out, ins := buildWorkspace(t, tc.k, 24, 24, tc.nz)
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
			t.Errorf("%s: %v allocs per steady-state Run, want 0", tc.name, allocs)
		}
	}
}

// TestCompileCachesPrograms checks cache identity and key sensitivity.
func TestCompileCachesPrograms(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	k := Executable(stencil.Laplacian())
	out, ins := buildWorkspace(t, k, 16, 16, 16)
	tv := tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 2, C: 2}
	p1, err := r.Compile(k, out, ins, tv)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.Compile(k, out, ins, tv)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("identical (kernel, geometry, vector) did not reuse the cached program")
	}
	tv2 := tv
	tv2.U = 4
	p3, err := r.Compile(k, out, ins, tv2)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("different tuning vector reused the same program")
	}
	if want := 2 * 2 * 2; p1.Tiles() != want {
		t.Errorf("tiles = %d, want %d", p1.Tiles(), want)
	}
	// A fresh grid of the same geometry runs through the same program.
	if err := p1.Run(out, ins); err != nil {
		t.Fatal(err)
	}
	out2 := grid.New(16, 16, 16, k.MaxOffset(), k.MaxOffset())
	if err := p1.Run(out2, ins); err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(out, out2); d != 0 {
		t.Errorf("rebound run differs by %g", d)
	}
}

// TestCompileValidatesWithColdAndWarmCache: Compile validates the kernel and
// the vector only on a cache miss and the input grids on every call, so an
// invalid kernel, invalid grids and an invalid vector must each fail on a
// fresh Runner and on one that already holds the valid programs of the same
// geometry at every depth. A depth out of range must not share the key of
// the one-step program that every valid depth of a multi-buffer kernel
// normalizes to. Run, which runs one step whatever the depth, must reject
// every other case.
func TestCompileValidatesWithColdAndWarmCache(t *testing.T) {
	for _, k := range []*LinearKernel{Executable(stencil.Laplacian()), Executable(stencil.Divergence())} {
		out, ins := buildWorkspace(t, k, 16, 16, 16)
		valid := tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 2, C: 2}
		noTerms := &LinearKernel{Name: "no-terms", Buffers: k.Buffers}
		badBuffer := &LinearKernel{Name: "bad-buffer", Buffers: k.Buffers, Terms: append(append([]Term(nil), k.Terms...), Term{Buffer: k.Buffers, Weight: 1})}
		thin := make([]*grid.Grid[float64], len(ins))
		mismatched := make([]*grid.Grid[float64], len(ins))
		for i := range ins {
			thin[i] = grid.New(16, 16, 16, 0, 0)
			mismatched[i] = grid.New(8, 16, 16, k.MaxOffset(), k.MaxOffset())
		}
		vec := func(edit func(*tunespace.Vector)) tunespace.Vector {
			v := valid
			edit(&v)
			return v
		}
		cases := []struct {
			name string
			k    *LinearKernel
			ins  []*grid.Grid[float64]
			tv   tunespace.Vector
		}{
			{"kernel without terms", noTerms, ins, valid},
			{"kernel reading a missing buffer", badBuffer, ins, valid},
			{"missing input grids", k, nil, valid},
			{"input grid of another size", k, mismatched, valid},
			{"input grid without a halo", k, thin, valid},
			{"bx=0", k, ins, vec(func(v *tunespace.Vector) { v.Bx = 0 })},
			{"bz=4096", k, ins, vec(func(v *tunespace.Vector) { v.Bz = 4096 })},
			{"u=9", k, ins, vec(func(v *tunespace.Vector) { v.U = 9 })},
			{"c=0", k, ins, vec(func(v *tunespace.Vector) { v.C = 0 })},
			{"k=-1", k, ins, vec(func(v *tunespace.Vector) { v.K = -1 })},
			{"k=7", k, ins, vec(func(v *tunespace.Vector) { v.K = 7 })},
		}
		for _, warm := range []bool{false, true} {
			r := NewRunner()
			if warm {
				for K := 0; K <= tunespace.MaxFuse; K++ {
					if _, err := r.Compile(k, out, ins, vec(func(v *tunespace.Vector) { v.K = K })); err != nil {
						t.Fatalf("%s K=%d: %v", k.Name, K, err)
					}
				}
			}
			for _, tc := range cases {
				if _, err := r.Compile(tc.k, out, tc.ins, tc.tv); err == nil {
					t.Errorf("%s, warm=%v: Compile accepted %s", k.Name, warm, tc.name)
				}
				if tc.tv.K != valid.K {
					continue
				}
				if err := r.Run(tc.k, out, tc.ins, tc.tv); err == nil {
					t.Errorf("%s, warm=%v: Run accepted %s", k.Name, warm, tc.name)
				}
			}
			r.Close()
		}
	}
}

// TestProgramRejectsForeignGeometry checks the per-run geometry guard.
func TestProgramRejectsForeignGeometry(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	k := Executable(stencil.Laplacian())
	out, ins := buildWorkspace(t, k, 16, 16, 16)
	p, err := r.Compile(k, out, ins, tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	other := grid.New(16, 16, 8, k.MaxOffset(), k.MaxOffset())
	if err := p.Run(other, ins); err == nil {
		t.Error("foreign output geometry accepted")
	}
	wideHalo := grid.New(16, 16, 16, 3, 3)
	if err := p.Run(out, []*grid.Grid[float64]{wideHalo}); err == nil {
		t.Error("foreign input halo accepted")
	}
	if err := p.Run(out, nil); err == nil {
		t.Error("missing buffers accepted")
	}
}

// TestRunnerCloseAndReuse checks Close is safe to call repeatedly and the
// runner restarts its pool transparently.
func TestRunnerCloseAndReuse(t *testing.T) {
	r := NewRunner()
	k := Executable(stencil.Laplacian())
	out, ins := buildWorkspace(t, k, 12, 12, 12)
	tv := tunespace.Vector{Bx: 4, By: 4, Bz: 4, U: 0, C: 1}
	if err := r.Run(k, out, ins, tv); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if err := r.Run(k, out, ins, tv); err != nil {
		t.Fatalf("run after close: %v", err)
	}
	r.Close()
}

// TestProgramCacheEviction fills the cache past its program-count bound and
// checks it stays bounded while results remain correct.
func TestProgramCacheEviction(t *testing.T) {
	r := &Runner[float64]{Workers: 2}
	defer r.Close()
	k := Executable(stencil.Laplacian())
	out, ins := buildWorkspace(t, k, 12, 12, 12)
	ref, _ := buildWorkspace(t, k, 12, 12, 12)
	if err := r.Reference(k, ref, ins); err != nil {
		t.Fatal(err)
	}
	unrolls := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	chunks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	blocks := []int{2, 3, 4, 6, 8, 12}
	n := 0
	for _, u := range unrolls {
		for _, c := range chunks {
			for _, b := range blocks {
				tv := tunespace.Vector{Bx: b, By: b, Bz: b, U: u, C: c}
				if err := r.Run(k, out, ins, tv); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
	}
	if n <= maxCachedPrograms/2 && len(r.progs) > n {
		t.Errorf("cache grew beyond inserted programs: %d > %d", len(r.progs), n)
	}
	if len(r.progs) > maxCachedPrograms {
		t.Errorf("cache holds %d programs, bound is %d", len(r.progs), maxCachedPrograms)
	}
	if r.cachedTiles > maxCachedTiles {
		t.Errorf("cache holds %d tiles, bound is %d", r.cachedTiles, maxCachedTiles)
	}
	if d := grid.MaxAbsDiff(ref, out); d > 1e-12 {
		t.Errorf("post-eviction result diff %g", d)
	}
}

// TestMeasurerGrowsWorkspaceInPlace checks that a later kernel needing more
// buffers extends the cached workspace instead of discarding it.
func TestMeasurerGrowsWorkspaceInPlace(t *testing.T) {
	m := NewMeasurer()
	defer m.Close()
	m.Repetitions = 1
	size := stencil.Size3D(16, 16, 16)
	tv := tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1}
	// laplacian: 1 buffer, halo 1.
	if _, err := m.Measure(stencil.Instance{Kernel: stencil.Laplacian(), Size: size}, tv); err != nil {
		t.Fatal(err)
	}
	if len(m.ws64) != 1 {
		t.Fatalf("workspaces = %d, want 1", len(m.ws64))
	}
	var w *workspace[float64]
	for _, v := range m.ws64 {
		w = v
	}
	out, ins := w.out, len(w.ins)
	if ins != 1 {
		t.Fatalf("buffers = %d, want 1", ins)
	}
	// divergence: 3 buffers, same halo and size → same workspace, grown.
	if _, err := m.Measure(stencil.Instance{Kernel: stencil.Divergence(), Size: size}, tv); err != nil {
		t.Fatal(err)
	}
	if len(m.ws64) != 1 {
		t.Fatalf("workspaces after growth = %d, want 1", len(m.ws64))
	}
	for _, v := range m.ws64 {
		if v.out != out {
			t.Error("workspace output grid was reallocated instead of reused")
		}
		if len(v.ins) != 3 {
			t.Errorf("buffers after growth = %d, want 3", len(v.ins))
		}
	}
}

// TestMeasurerCachesExecutableKernels checks the stable-kernel-pointer cache
// that makes Measure hit the runner's program cache.
func TestMeasurerCachesExecutableKernels(t *testing.T) {
	m := NewMeasurer()
	defer m.Close()
	m.Repetitions = 1
	q := stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(16, 16, 16)}
	tv := tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1}
	if _, err := m.Measure(q, tv); err != nil {
		t.Fatal(err)
	}
	k1 := m.executableFor(q.Kernel)
	if _, err := m.Measure(q, tv); err != nil {
		t.Fatal(err)
	}
	if k2 := m.executableFor(q.Kernel); k2 != k1 {
		t.Error("executable kernel rebuilt between measurements")
	}
	if len(m.Runner.progs) != 1 {
		t.Errorf("program cache holds %d entries after repeated measurement, want 1", len(m.Runner.progs))
	}
}

// TestMeasurerSharesExecutableByStructure checks the executable-kernel
// cache key: kernels equal in what Executable reads share one realization
// whatever their names, while a Table III kernel's textbook terms never
// serve an equal shape under another name, nor a different multiplicity.
func TestMeasurerSharesExecutableByStructure(t *testing.T) {
	m := NewMeasurer()
	defer m.Close()
	pts := []shape.Point{{}, {X: 1}, {Y: -1}, {Z: 2}}
	mk := func(name string, sh *shape.Shape) *stencil.Kernel {
		return &stencil.Kernel{Name: name, Shape: sh, Buffers: 1}
	}
	a := m.executableFor(mk("a", shape.New(pts...)))
	if b := m.executableFor(mk("b", shape.New(pts...))); b != a {
		t.Error("equal offset kernels under different names got distinct executables")
	}
	twice := shape.New(pts...)
	twice.Add(shape.Point{}, 1)
	if c := m.executableFor(mk("a", twice)); c == a {
		t.Error("a kernel with a doubled centre access shared the single-access executable")
	}
	lap := m.executableFor(stencil.Laplacian())
	if same := m.executableFor(stencil.Laplacian()); same != lap {
		t.Error("two laplacian kernels got distinct executables")
	}
	if other := m.executableFor(mk("custom", stencil.Laplacian().Shape)); other == lap {
		t.Error("a non-Table-III kernel shared the laplacian's textbook executable")
	}
	fresh := mk("c", shape.New(pts...))
	if n := testing.AllocsPerRun(100, func() { m.executableFor(fresh) }); n != 0 {
		t.Errorf("a cache hit allocated %v times, want 0", n)
	}
}
