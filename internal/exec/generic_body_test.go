package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/shape"
	"repro/internal/tunespace"
)

// forcePortable makes programs compiled until the test ends run the
// portable generic passes instead of the AVX2 span kernels.
func forcePortable(t testing.TB) {
	old := useAVX2
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = old })
}

// TestPropertiesOnPortableBody reruns the generic-path, fused, float32
// Reference and pool schedule property tests with the portable passes forced, so on an AVX2
// host both generic bodies stay pinned by the same checks.
func TestPropertiesOnPortableBody(t *testing.T) {
	forcePortable(t)
	for _, test := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"GenericRowsMatchReference", TestGenericRowsMatchReference},
		{"FusedMatchesSequential", TestFusedMatchesSequential},
		{"FusedPlanarShapesOn3DGrids", TestFusedPlanarShapesOn3DGrids},
		{"Float32RowsMatchReference", TestFloat32RowsMatchReference},
		{"Float32FastPathsMatchReference", TestFloat32FastPathsMatchReference},
		{"PoolRunsEveryTileOnce", TestPoolRunsEveryTileOnce},
		{"PoolScheduleMatchesReference", TestPoolScheduleMatchesReference},
		{"PoolFusedScheduleMatchesSequential", TestPoolFusedScheduleMatchesSequential},
	} {
		t.Run(test.name, test.run)
	}
}

// specialValues are the inputs IEEE arithmetic treats specially: signed
// zeros, infinities, NaN and subnormals of T.
func specialValues[T grid.Float]() []T {
	var zero T
	tiny := math.SmallestNonzeroFloat64
	if _, ok := any(zero).(float32); ok {
		tiny = math.SmallestNonzeroFloat32
	}
	return []T{
		0, T(math.Copysign(0, -1)), T(math.Inf(1)), T(math.Inf(-1)), T(math.NaN()),
		T(tiny), T(-tiny), T(tiny * 1024), T(-tiny * 3),
	}
}

// genericBodiesCase is one point of the differential space: a random
// kernel of nt terms on buffers inputs, or a single-buffer kernel of one of
// the classicShapes in shuffled term order, run over rows of n points with
// unroll u.
type genericBodiesCase struct {
	seed              int64
	n, nt, buffers, u int
	specials, f32     bool
	shape             string // a classicShapes name, or "" for random terms
}

func (c genericBodiesCase) String() string {
	return fmt.Sprintf("seed=%d/n=%d/terms=%d/buffers=%d/u=%d/specials=%v/f32=%v/shape=%s",
		c.seed, c.n, c.nt, c.buffers, c.u, c.specials, c.f32, c.shape)
}

// classicShapes are the stars, the row and the boxes that the Table III
// kernels and most hand-written stencils use.
var classicShapes = map[string][]shape.Point{
	"row3":  {pt(0, 0, 0), pt(1, 0, 0), pt(-1, 0, 0)},
	"star5": {pt(0, 0, 0), pt(1, 0, 0), pt(-1, 0, 0), pt(0, 1, 0), pt(0, -1, 0)},
	"star7": {pt(0, 0, 0), pt(1, 0, 0), pt(-1, 0, 0), pt(0, 1, 0), pt(0, -1, 0), pt(0, 0, 1), pt(0, 0, -1)},
	"box9":  boxPoints(0),
	"box27": boxPoints(1),
}

// sameBits reports whether two results are the same value bit for bit, or
// both NaN (NaN payloads are not part of the contract).
func sameBits[T grid.Float](a, b T) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// checkGenericBodies runs one case through the AVX2 span kernel, the
// portable passes and Reference, and requires all three to agree at every
// point of the grid, halo included: AVX2 and portable bit for bit, and
// Reference bit for bit except that its 0 + w·s head may turn a −0 result
// into +0.
func checkGenericBodies[T grid.Float](t *testing.T, c genericBodiesCase) {
	t.Helper()
	if !cpuHasAVX2() {
		t.Skip("CPU without AVX2: only the portable body exists")
	}
	rng := rand.New(rand.NewSource(c.seed))
	specials := specialValues[T]()
	val := func() T {
		if c.specials && rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return T(rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20))
	}
	const radius = 2
	k := &LinearKernel{Name: c.String(), Buffers: c.buffers}
	if pts := classicShapes[c.shape]; pts != nil {
		for _, i := range rng.Perm(len(pts)) {
			k.Terms = append(k.Terms, Term{Offset: pts[i], Weight: float64(val())})
		}
	} else {
		for i := 0; i < c.nt; i++ {
			k.Terms = append(k.Terms, Term{
				Buffer: rng.Intn(c.buffers),
				Offset: shape.Point{X: rng.Intn(2*radius+1) - radius, Y: rng.Intn(2*radius+1) - radius, Z: rng.Intn(2*radius+1) - radius},
				Weight: float64(val()),
			})
		}
		k.Terms[0].Offset.X = radius // every case reads the full halo
	}
	nx, ny, nz := c.n, 3, 2
	ins := make([]*grid.Grid[T], c.buffers)
	for b := range ins {
		ins[b] = grid.NewOf[T](nx, ny, nz, radius, radius)
		for i, d := 0, ins[b].Data(); i < len(d); i++ {
			d[i] = val()
		}
	}
	// Tiles span whole rows (a tile is at least 2 wide, clipped to nx), so
	// every span the kernels walk is exactly n points long.
	tv := tunespace.Vector{Bx: max(c.n, 2), By: 2 + rng.Intn(2), Bz: 2, U: c.u, C: 1 + rng.Intn(3)}

	run := func(avx2 bool) *grid.Grid[T] {
		old := useAVX2
		useAVX2 = avx2
		defer func() { useAVX2 = old }()
		r := NewRunnerOf[T]()
		defer r.Close()
		out := grid.NewOf[T](nx, ny, nz, radius, radius)
		pr, err := r.Compile(k, out, ins, tv)
		if err != nil {
			t.Fatalf("%v: compile: %v", c, err)
		}
		if pr.avx2 != avx2 {
			t.Fatalf("%v: compiled avx2 %v, want %v", c, pr.avx2, avx2)
		}
		if err := pr.Run(out, ins); err != nil {
			t.Fatalf("%v: run: %v", c, err)
		}
		return out
	}
	simd, portable := run(true), run(false)
	ref := grid.NewOf[T](nx, ny, nz, radius, radius)
	r := NewRunnerOf[T]()
	defer r.Close()
	if err := r.Reference(k, ref, ins); err != nil {
		t.Fatalf("%v: reference: %v", c, err)
	}
	s, p, want := simd.Data(), portable.Data(), ref.Data()
	for i := range want {
		if !sameBits(s[i], p[i]) {
			t.Fatalf("%v: element %d: avx2 %v (%#x), portable %v (%#x)",
				c, i, s[i], math.Float64bits(float64(s[i])), p[i], math.Float64bits(float64(p[i])))
		}
		if !sameBits(p[i], want[i]) && !(p[i] == 0 && want[i] == 0) {
			t.Fatalf("%v: element %d: generic %v, reference %v", c, i, p[i], want[i])
		}
	}
}

// genericBodiesSpace lists the differential test's cases: row lengths
// around the 4- and 8-lane block edges, term counts from one to a full
// radius-2 box, 1–3 buffers and every unroll factor, with special inputs
// in every other case. The element type alternates too, so the fuzz seeds
// cover both; TestGenericBodiesMatch runs every case in both. Rows of 12,
// 24 and 48 points end in a 2-vector block after a partial or a full
// 4-vector block (12 and 24 in float64, 24 and 48 in float32).
func genericBodiesSpace() []genericBodiesCase {
	var cases []genericBodiesCase
	seed := int64(0)
	for _, n := range []int{1, 3, 4, 5, 15, 16, 17, 33, 12, 24, 48} {
		for _, nt := range []int{1, 2, 6, 14, 30, 125} {
			for buffers := 1; buffers <= 3; buffers++ {
				for u := 0; u <= 8; u++ {
					seed++
					cases = append(cases, genericBodiesCase{
						seed: seed, n: n, nt: nt, buffers: buffers, u: u,
						specials: seed%2 == 0, f32: seed%4 < 2,
					})
				}
			}
		}
	}
	return cases
}

func (c genericBodiesCase) check(t *testing.T) {
	if c.f32 {
		checkGenericBodies[float32](t, c)
	} else {
		checkGenericBodies[float64](t, c)
	}
}

// classicCases lists every classicShapes kernel over the same row lengths
// and every unroll factor.
func classicCases() []genericBodiesCase {
	var cases []genericBodiesCase
	seed := int64(1 << 20)
	for _, name := range []string{"row3", "star5", "star7", "box9", "box27"} {
		for _, n := range []int{1, 5, 12, 17, 24, 33, 48} {
			for u := 0; u <= 8; u++ {
				seed++
				cases = append(cases, genericBodiesCase{
					seed: seed, n: n, nt: len(classicShapes[name]), buffers: 1, u: u,
					specials: seed%2 == 0, shape: name,
				})
			}
		}
	}
	return cases
}

// TestGenericBodiesMatch is the differential test of the two generic
// bodies against each other and against Reference.
func TestGenericBodiesMatch(t *testing.T) {
	for _, c := range append(genericBodiesSpace(), classicCases()...) {
		for _, f32 := range []bool{false, true} {
			c.f32 = f32
			c.check(t)
		}
	}
}

// FuzzGenericRows explores the same space as TestGenericBodiesMatch with
// fuzzer-chosen seeds, row lengths, term and buffer counts and unroll
// factors. Inputs are folded into range: n in [1, 64], 1–125 terms, 1–3
// buffers, u in [0, 8].
func FuzzGenericRows(f *testing.F) {
	for _, c := range genericBodiesSpace() {
		f.Add(c.seed, uint8(c.n-1), uint8(c.nt-1), uint8(c.buffers-1), uint8(c.u), c.specials, c.f32)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, nt, buffers, u uint8, specials, f32 bool) {
		c := genericBodiesCase{
			seed: seed, n: int(n)%64 + 1, nt: int(nt)%125 + 1, buffers: int(buffers)%3 + 1,
			u: int(u) % 9, specials: specials, f32: f32,
		}
		c.check(t)
	})
}

// TestCompileRejectsOutOfBoundsReads covers the compile-time proof the
// AVX2 kernel's missing bounds checks rely on: a z offset on a 2-D grid
// passes the halo check (2-D grids carry no z halo) but reads a whole plane
// past the allocation, so Compile must fail, for a one-step program and for
// a wavefront, instead of handing the kernel to a body.
func TestCompileRejectsOutOfBoundsReads(t *testing.T) {
	k := &LinearKernel{Name: "z-on-2d", Buffers: 1, Terms: []Term{
		{Offset: shape.Point{X: 1}, Weight: 0.5},
		{Offset: shape.Point{Z: 1}, Weight: 0.5},
	}}
	r := NewRunner()
	defer r.Close()
	out, in := grid.New2D(16, 8, 1), grid.New2D(16, 8, 1)
	tv := tunespace.Vector{Bx: 16, By: 4, Bz: 1, U: 4, C: 1}
	if _, err := r.Compile(k, out, []*grid.Grid[float64]{in}, tv); err == nil {
		t.Fatal("Compile accepted a kernel that reads past the grid")
	}
	if err := r.Run(k, out, []*grid.Grid[float64]{in}, tv); err == nil {
		t.Fatal("Run accepted a kernel that reads past the grid")
	}
	tv.K = 2
	if _, err := r.Compile(k, out, []*grid.Grid[float64]{in}, tv); err == nil {
		t.Fatal("Compile accepted a wavefront that reads past a plane")
	}
}

// TestCompileRejectsOversizeGeometry pins the int32 bound of the span plan:
// a geometry of more than math.MaxInt32 elements fails its size check,
// which Compile runs before it allocates anything, while one element fewer
// than the bound passes. Both geometries are values; no grid is built.
func TestCompileRejectsOversizeGeometry(t *testing.T) {
	over := geom{nx: 2046, ny: 2046, nz: 512, halo: 1, haloZ: 1}
	if over.size() <= math.MaxInt32 {
		t.Fatalf("test geometry holds %d elements, not above the bound", over.size())
	}
	if err := over.checkSize(); err == nil {
		t.Fatalf("checkSize accepted %d elements", over.size())
	}
	fits := geom{nx: math.MaxInt32, ny: 1, nz: 1}
	if err := fits.checkSize(); err != nil {
		t.Fatalf("checkSize rejected exactly math.MaxInt32 elements: %v", err)
	}
}

// TestRunRejectsShortGrids covers Program.Run's other half of the proof:
// a grid whose geometry matches the program but whose data is shorter than
// the geometry (here a Grid literal with no data) is rejected, as output
// and as input, before any body runs — by a one-step program and by a
// wavefront alike.
func TestRunRejectsShortGrids(t *testing.T) {
	k := &LinearKernel{Name: "pair", Buffers: 1, Terms: []Term{
		{Offset: shape.Point{X: 1}, Weight: 0.5},
		{Offset: shape.Point{Y: -1}, Weight: 0.5},
	}}
	r := NewRunner()
	defer r.Close()
	out, in := grid.New(8, 8, 4, 1, 1), grid.New(8, 8, 4, 1, 1)
	short := &grid.Grid[float64]{NX: 8, NY: 8, NZ: 4, Halo: 1, HaloZ: 1}
	for _, K := range []int{1, 2} {
		pr, err := r.Compile(k, out, []*grid.Grid[float64]{in}, tunespace.Vector{Bx: 8, By: 8, Bz: 2, U: 2, C: 1, K: K})
		if err != nil {
			t.Fatal(err)
		}
		if pr.Steps() != K {
			t.Fatalf("K=%d: Steps() = %d", K, pr.Steps())
		}
		if err := pr.Run(out, []*grid.Grid[float64]{short}); err == nil {
			t.Fatalf("K=%d: Run accepted an input shorter than the geometry", K)
		}
		if err := pr.Run(short, []*grid.Grid[float64]{in}); err == nil {
			t.Fatalf("K=%d: Run accepted an output shorter than the geometry", K)
		}
		if err := pr.Run(out, []*grid.Grid[float64]{in}); err != nil {
			t.Fatalf("K=%d: Run rejected full grids: %v", K, err)
		}
	}
}

// checkBodyIsCPUChoice compiles k on an nz-plane grid with useAVX2 off and,
// on an AVX2 CPU, on, and requires the one-step program — and, with fused
// set, the wavefront program — to run the row body useAVX2 named: no kernel
// shape selects a body of its own.
func checkBodyIsCPUChoice(t *testing.T, k *LinearKernel, nz int, fused bool) {
	t.Helper()
	old := useAVX2
	defer func() { useAVX2 = old }()
	for _, avx2 := range []bool{false, cpuHasAVX2()} {
		useAVX2 = avx2
		r := NewRunner()
		tv := tunespace.Vector{Bx: 8, By: 4, Bz: 4, U: 4, C: 1, K: 1}
		out, ins := buildWorkspace(t, k, 8, 8, nz)
		pr, err := r.Compile(k, out, ins, tv)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if pr.avx2 != avx2 {
			t.Errorf("%s: program avx2 %v, want %v", k.Name, pr.avx2, avx2)
		}
		if fused {
			tv.K = 2
			fp, err := r.Compile(k, out, ins, tv)
			if err != nil {
				t.Fatalf("%s: fused: %v", k.Name, err)
			}
			if fp.wave == nil || fp.avx2 != avx2 {
				t.Errorf("%s: wavefront %v, avx2 %v, want a wavefront with avx2 %v", k.Name, fp.wave != nil, fp.avx2, avx2)
			}
		}
		r.Close()
	}
}

// TestShuffledTermsMatchReference builds star7, box9 and box27 kernels by
// hand with their terms in shuffled order and requires single-step runs and
// fused runs of depth 1–3 to match Reference bit for bit, in both precisions
// and on both row bodies: no body may reorder a kernel's terms.
func TestShuffledTermsMatchReference(t *testing.T) {
	bodies := []bool{false}
	if cpuHasAVX2() {
		bodies = append(bodies, true)
	}
	rng := rand.New(rand.NewSource(24))
	for _, avx2 := range bodies {
		for _, name := range []string{"star7", "box9", "box27"} {
			pts := classicShapes[name]
			k := &LinearKernel{Name: name + "-shuffled", Buffers: 1}
			for _, i := range rng.Perm(len(pts)) {
				k.Terms = append(k.Terms, Term{Offset: pts[i], Weight: rng.NormFloat64()})
			}
			nz := 7
			if name == "box9" {
				nz = 1
			}
			checkShuffled[float64](t, k, nz, avx2, rng)
			checkShuffled[float32](t, k, nz, avx2, rng)
		}
	}
}

func checkShuffled[T grid.Float](t *testing.T, k *LinearKernel, nz int, avx2 bool, rng *rand.Rand) {
	t.Helper()
	old := useAVX2
	useAVX2 = avx2
	defer func() { useAVX2 = old }()
	r := NewRunnerOf[T]()
	defer r.Close()
	nx, ny := 37, 11
	newGrid := func() *grid.Grid[T] {
		if nz == 1 {
			return grid.NewOf[T](nx, ny, 1, 1, 0)
		}
		return grid.NewOf[T](nx, ny, nz, 1, 1)
	}
	in := newGrid()
	for i, d := 0, in.Data(); i < len(d); i++ {
		d[i] = T(rng.NormFloat64())
	}
	refreshPeriodic(in)
	same := func(what string, tv tunespace.Vector, got, want *grid.Grid[T]) {
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					if i := want.Index(x, y, z); got.Data()[i] != want.Data()[i] {
						t.Fatalf("%s avx2=%v %s %+v: (%d,%d,%d) = %v, reference %v",
							k.Name, avx2, what, tv, x, y, z, got.Data()[i], want.Data()[i])
					}
				}
			}
		}
	}

	// refs[s] is the state after s sequential Reference steps.
	refs := []*grid.Grid[T]{in}
	for s := 1; s <= 3; s++ {
		prev := refs[s-1]
		refreshPeriodic(prev)
		next := newGrid()
		if err := r.Reference(k, next, []*grid.Grid[T]{prev}); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, next)
	}
	for u := 0; u <= 8; u += 2 {
		tv := tunespace.Vector{Bx: 4 + rng.Intn(40), By: 2 + rng.Intn(10), Bz: 2 + rng.Intn(6), U: u, C: 1 + rng.Intn(3), K: 1 + u%3}
		if nz == 1 {
			tv.Bz = 1
		}
		got := newGrid()
		if err := r.Run(k, got, []*grid.Grid[T]{in}, tv); err != nil {
			t.Fatal(err)
		}
		same("run", tv, got, refs[1])
		fp, err := r.Compile(k, got, []*grid.Grid[T]{in}, tv)
		if err != nil {
			t.Fatal(err)
		}
		if err := fp.Run(got, []*grid.Grid[T]{in}); err != nil {
			t.Fatal(err)
		}
		same("fused", tv, got, refs[tv.K])
	}
}
