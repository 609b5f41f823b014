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
		{"OversizeFallbackMatchesSpans", TestOversizeFallbackMatchesSpans},
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

// genericBodiesCase is one point of the differential space: a generic
// kernel of nt terms on buffers inputs, run over rows of n points with
// unroll u.
type genericBodiesCase struct {
	seed              int64
	n, nt, buffers, u int
	specials, f32     bool
}

func (c genericBodiesCase) String() string {
	return fmt.Sprintf("seed=%d/n=%d/terms=%d/buffers=%d/u=%d/specials=%v/f32=%v",
		c.seed, c.n, c.nt, c.buffers, c.u, c.specials, c.f32)
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
	for i := 0; i < c.nt; i++ {
		k.Terms = append(k.Terms, Term{
			Buffer: rng.Intn(c.buffers),
			Offset: shape.Point{X: rng.Intn(2*radius+1) - radius, Y: rng.Intn(2*radius+1) - radius, Z: rng.Intn(2*radius+1) - radius},
			Weight: float64(val()),
		})
	}
	k.Terms[0].Offset.X = radius // every case reads the full halo
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
		if pr.fp != nil || pr.avx2 != avx2 {
			t.Fatalf("%v: compiled fast path %v, avx2 %v; want the generic body with avx2 %v", c, pr.fp != nil, pr.avx2, avx2)
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
// cover both; TestGenericBodiesMatch runs every case in both.
func genericBodiesSpace() []genericBodiesCase {
	var cases []genericBodiesCase
	seed := int64(0)
	for _, n := range []int{1, 3, 4, 5, 15, 16, 17, 33} {
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

// TestGenericBodiesMatch is the differential test of the two generic
// bodies against each other and against Reference.
func TestGenericBodiesMatch(t *testing.T) {
	for _, c := range genericBodiesSpace() {
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
		if c.buffers == 1 && fastTermCounts[c.nt] {
			c.buffers = 2 // a one-buffer kernel of these sizes may match a fast path
		}
		c.check(t)
	})
}

// fastTermCounts are the term counts of the structural fast-path tables.
var fastTermCounts = map[int]bool{3: true, 5: true, 7: true, 9: true, 27: true}

// TestCompileRejectsOutOfBoundsReads covers the compile-time proof the
// AVX2 kernel's missing bounds checks rely on: a z offset on a 2-D grid
// passes the halo check (2-D grids carry no z halo) but reads a whole plane
// past the allocation, so Compile and CompileFused must fail instead of
// handing the kernel to a body.
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
	if _, err := r.CompileFused(k, out, in, tv); err == nil {
		t.Fatal("CompileFused accepted a kernel that reads past a plane")
	}

	// Grids too large for a span plan are proved tile by tile.
	k.Terms[1].Offset = shape.Point{Y: 1}
	pr, err := r.Compile(k, out, []*grid.Grid[float64]{in}, tv)
	if err != nil {
		t.Fatal(err)
	}
	pr.spans, pr.spanStart = nil, nil
	if err := pr.checkReads(); err != nil {
		t.Fatalf("tile check rejected an in-bounds program: %v", err)
	}
	pr.p.idxOff[1] += pr.geom.size()
	if err := pr.checkReads(); err == nil {
		t.Fatal("tile check accepted a read past the grid")
	}
}

// TestRunRejectsShortGrids covers Program.Run's other half of the proof:
// a grid whose geometry matches the program but whose data is shorter than
// the geometry (here a Grid literal with no data) is rejected, as output
// and as input, before any body runs.
func TestRunRejectsShortGrids(t *testing.T) {
	k := &LinearKernel{Name: "pair", Buffers: 1, Terms: []Term{
		{Offset: shape.Point{X: 1}, Weight: 0.5},
		{Offset: shape.Point{Y: -1}, Weight: 0.5},
	}}
	r := NewRunner()
	defer r.Close()
	out, in := grid.New(8, 8, 4, 1, 1), grid.New(8, 8, 4, 1, 1)
	short := &grid.Grid[float64]{NX: 8, NY: 8, NZ: 4, Halo: 1, HaloZ: 1}
	pr, err := r.Compile(k, out, []*grid.Grid[float64]{in}, tunespace.Vector{Bx: 8, By: 8, Bz: 2, U: 2, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Run(out, []*grid.Grid[float64]{short}); err == nil {
		t.Fatal("Run accepted an input shorter than the geometry")
	}
	if err := pr.Run(short, []*grid.Grid[float64]{in}); err == nil {
		t.Fatal("Run accepted an output shorter than the geometry")
	}
	if err := pr.Run(out, []*grid.Grid[float64]{in}); err != nil {
		t.Fatalf("Run rejected full grids: %v", err)
	}
}
