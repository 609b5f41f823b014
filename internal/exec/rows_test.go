package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/shape"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// randomGenericKernel draws a kernel of random in-halo offsets (duplicates
// allowed) with random weights across 1–3 buffers.
func randomGenericKernel(rng *rand.Rand, dims, halo int) *LinearKernel {
	counts := []int{1, 2, 4, 6, 8, 11, 14}
	nt := counts[rng.Intn(len(counts))]
	buffers := 1 + rng.Intn(3)
	k := &LinearKernel{Name: fmt.Sprintf("rand-%dd-t%d-b%d", dims, nt, buffers), Buffers: buffers}
	for i := 0; i < nt; i++ {
		p := shape.Point{X: rng.Intn(2*halo+1) - halo, Y: rng.Intn(2*halo+1) - halo}
		if dims == 3 {
			p.Z = rng.Intn(2*halo+1) - halo
		}
		k.Terms = append(k.Terms, Term{
			Buffer: rng.Intn(buffers),
			Offset: p,
			Weight: rng.NormFloat64(),
		})
	}
	// Guarantee the halo width is actually needed so workspaces get the
	// intended halo regardless of the other draws.
	k.Terms[0].Offset = shape.Point{X: halo}
	return k
}

// TestGenericRowsMatchReference is the row-plan correctness sweep: random
// kernel shapes × halos × 2-D/3-D geometries × tile sizes and unroll/chunk
// factors, asserting the compiled span-walk path is bit-for-bit equal to the
// naive Reference sweep (the term-major passes accumulate in plan order, so
// no reassociation tolerance is needed).
func TestGenericRowsMatchReference(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		dims := 2 + rng.Intn(2)
		halo := 1 + rng.Intn(3)
		k := randomGenericKernel(rng, dims, halo)
		nx, ny := 3+rng.Intn(31), 3+rng.Intn(31)
		nz := 1
		if dims == 3 {
			nz = 3 + rng.Intn(14)
		}
		ref, ins := buildWorkspace(t, k, nx, ny, nz)
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
			got := grid.New(nx, ny, nz, k.MaxOffset(), ref.HaloZ)
			if err := r.Run(k, got, ins, tv); err != nil {
				t.Fatalf("trial %d %s %+v: %v", trial, k.Name, tv, err)
			}
			if d := grid.MaxAbsDiff(ref, got); d != 0 {
				t.Fatalf("trial %d %s %+v: diff %g, want bit-for-bit match", trial, k.Name, tv, d)
			}
		}
	}
}

// TestRowPlanCoversDomainExactly checks the compiled span plan: every
// interior point is covered by exactly one (base, n) row span, spans agree
// with the tile ownership recorded in spanStart, and no span strays into the
// halo.
func TestRowPlanCoversDomainExactly(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	k := Executable(stencil.Gradient())
	out, ins := buildWorkspace(t, k, 30, 20, 10)
	pr, err := r.Compile(k, out, ins, tunespace.Vector{Bx: 7, By: 8, Bz: 3, U: 2, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pr.spans == nil || len(pr.spanStart) != len(pr.tiles)+1 {
		t.Fatalf("span plan missing: spans=%d spanStart=%d tiles=%d",
			len(pr.spans), len(pr.spanStart), len(pr.tiles))
	}
	// Interior flat indices, each expected exactly once.
	want := make(map[int]bool)
	for z := 0; z < out.NZ; z++ {
		for y := 0; y < out.NY; y++ {
			for x := 0; x < out.NX; x++ {
				want[out.Index(x, y, z)] = true
			}
		}
	}
	covered := make(map[int]int)
	for ti := range pr.tiles {
		lo, hi := pr.spanStart[ti], pr.spanStart[ti+1]
		rows := (pr.tiles[ti].y1 - pr.tiles[ti].y0) * (pr.tiles[ti].z1 - pr.tiles[ti].z0)
		if int(hi-lo) != rows {
			t.Fatalf("tile %d owns %d spans, want %d", ti, hi-lo, rows)
		}
		for si := lo; si < hi; si++ {
			base, n := int(pr.spans[2*si]), int(pr.spans[2*si+1])
			if n != pr.tiles[ti].x1-pr.tiles[ti].x0 {
				t.Fatalf("tile %d span %d has length %d, want %d", ti, si, n, pr.tiles[ti].x1-pr.tiles[ti].x0)
			}
			for i := base; i < base+n; i++ {
				if !want[i] {
					t.Fatalf("span [%d,%d) covers non-interior index %d", base, base+n, i)
				}
				covered[i]++
			}
		}
	}
	if len(covered) != len(want) {
		t.Fatalf("spans cover %d points, want %d", len(covered), len(want))
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

// TestFuseWidths pins the unroll→fuse mapping the compiled generic path and
// runTile both use.
func TestFuseWidths(t *testing.T) {
	for u, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 4, 8: 4} {
		if got := fuseWidth(u); got != want {
			t.Errorf("fuseWidth(%d) = %d, want %d", u, got, want)
		}
	}
}

// rowBody is one of the six row bodies behind a uniform signature: src
// holds its term sources and w their weights, in plan order.
type rowBody[T grid.Float] struct {
	name  string
	terms int
	head  bool // overwrites dst instead of accumulating into it
	run   func(dst []T, src [][]T, w []T)
}

func rowBodies[T grid.Float]() []rowBody[T] {
	return []rowBody[T]{
		{"rowScale1", 1, true, func(d []T, s [][]T, w []T) { rowScale1(d, s[0], w[0]) }},
		{"rowScale2", 2, true, func(d []T, s [][]T, w []T) { rowScale2(d, s[0], s[1], w[0], w[1]) }},
		{"rowScale4", 4, true, func(d []T, s [][]T, w []T) {
			rowScale4(d, s[0], s[1], s[2], s[3], w[0], w[1], w[2], w[3])
		}},
		{"rowAxpy1", 1, false, func(d []T, s [][]T, w []T) { rowAxpy1(d, s[0], w[0]) }},
		{"rowAxpy2", 2, false, func(d []T, s [][]T, w []T) { rowAxpy2(d, s[0], s[1], w[0], w[1]) }},
		{"rowAxpy4", 4, false, func(d []T, s [][]T, w []T) {
			rowAxpy4(d, s[0], s[1], s[2], s[3], w[0], w[1], w[2], w[3])
		}},
	}
}

// testRowBodies checks every row body against a scalar loop that folds the
// terms left to right, as Reference does, for every row length 0..37: the
// 4-wide main loop, the n%4 tails and rows shorter than one step. Values
// span many binades so any reassociation changes the bits. Sources are
// longer than the row and dst sits in a larger buffer, so a body that reads
// or writes past n fails too.
func testRowBodies[T grid.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	val := func() T { return T(rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)) }
	const sentinel = 12345
	for _, b := range rowBodies[T]() {
		for n := 0; n <= 37; n++ {
			src := make([][]T, b.terms)
			w := make([]T, b.terms)
			for ti := range src {
				src[ti] = make([]T, n+3)
				for i := range src[ti] {
					src[ti][i] = val()
				}
				w[ti] = val()
			}
			buf := make([]T, n+4)
			for i := range buf {
				buf[i] = sentinel
			}
			dst := buf[:n]
			for i := range dst {
				dst[i] = val()
			}
			want := make([]T, n)
			for i := range want {
				acc := dst[i]
				if b.head {
					acc = w[0] * src[0][i]
				} else {
					acc += w[0] * src[0][i]
				}
				for ti := 1; ti < b.terms; ti++ {
					acc += w[ti] * src[ti][i]
				}
				want[i] = acc
			}
			b.run(dst, src, w)
			for i := range want {
				if math.Float64bits(float64(dst[i])) != math.Float64bits(float64(want[i])) {
					t.Fatalf("%s n=%d: point %d = %v, want %v", b.name, n, i, dst[i], want[i])
				}
			}
			for i := n; i < len(buf); i++ {
				if buf[i] != sentinel {
					t.Fatalf("%s n=%d: wrote past the row at %d", b.name, n, i)
				}
			}
		}
	}
}

func TestRowBodiesMatchScalarLoop(t *testing.T) {
	t.Run("float64", testRowBodies[float64])
	t.Run("float32", testRowBodies[float32])
}
