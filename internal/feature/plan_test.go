package feature

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// TestPlanScoreBitIdenticalToEncodeDot pins the plan's contract: scoring a
// candidate from the instance's head plus its tail gives exactly the bits of
// Encode followed by Dot, for every Table III kernel at power-of-two and odd
// sizes, over the fusion-extended predefined set plus random off-lattice
// vectors, with the full weight vector and with weight vectors truncated
// below Dim (older, narrower models).
func TestPlanScoreBitIdenticalToEncodeDot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := planWeights(rng)

	sizes := map[int][]stencil.Size{
		2: {stencil.Size2D(1024, 768), stencil.Size2D(999, 37)},
		3: {stencil.Size3D(128, 128, 128), stencil.Size3D(129, 67, 33)},
	}
	enc := NewEncoder()
	// A strided subset keeps the test fast; the stride is prime, so the
	// subset still reaches every parameter value.
	const stride = 7
	checks := 0
	for _, k := range stencil.BenchmarkKernels() {
		space := tunespace.NewSpace(k.Dims())
		var cands []tunespace.Vector
		for i, v := range space.PredefinedFused() {
			if i%stride == 0 {
				cands = append(cands, v)
			}
		}
		cands = append(cands, space.RandomSet(rng, 350/stride)...)
		for _, sz := range sizes[k.Dims()] {
			q := stencil.Instance{Kernel: k, Size: sz}
			plan := enc.Plan(q)
			got := make([][]float64, len(ws))
			for j, w := range ws {
				got[j] = make([]float64, len(cands))
				plan.ScoreInto(got[j], w, cands)
			}
			for i, c := range cands {
				x := enc.Encode(q, c)
				for j, w := range ws {
					if want := x.Dot(w); math.Float64bits(got[j][i]) != math.Float64bits(want) {
						t.Fatalf("%s %v len(w)=%d: plan score %v, Encode·w %v",
							q.ID(), c, len(w), got[j][i], want)
					}
					checks++
				}
			}
		}
	}
	t.Logf("%d bit-identity checks", checks)
}

// planWeights returns a random full-width weight vector and its
// truncations: cuts inside the pattern block, inside the size block, inside
// the tuning block and at the pre-fusion width.
func planWeights(rng *rand.Rand) [][]float64 {
	full := make([]float64, Dim)
	for i := range full {
		full[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return [][]float64{full, full[:200], full[:idxSizeZ], full[:idxBx+3], full[:idxFuse]}
}

// scoreChecker holds Encode·w for a universe of candidates under every
// weight vector, and checks ScoreInto on sequences drawn from it bit for
// bit.
type scoreChecker struct {
	plan  *Plan
	ws    [][]float64
	cands []tunespace.Vector
	want  [][]uint64 // want[i][j]: bits of Encode(q, cands[i])·ws[j]
}

func newScoreChecker(enc *Encoder, q stencil.Instance, ws [][]float64, cands []tunespace.Vector) *scoreChecker {
	c := &scoreChecker{plan: enc.Plan(q), ws: ws, cands: cands, want: make([][]uint64, len(cands))}
	for i, v := range cands {
		x := enc.Encode(q, v)
		c.want[i] = make([]uint64, len(ws))
		for j, w := range ws {
			c.want[i][j] = math.Float64bits(x.Dot(w))
		}
	}
	return c
}

// check scores the candidates at positions seq of the universe, in that
// order, in one call per chunk, cutting the sequence at the given ascending
// boundaries, and compares every score with Encode·w.
func (c *scoreChecker) check(t testing.TB, what string, seq []int, cuts ...int) {
	t.Helper()
	set := make([]tunespace.Vector, len(seq))
	for i, k := range seq {
		set[i] = c.cands[k]
	}
	out := make([]float64, len(set))
	for j, w := range c.ws {
		lo := 0
		for _, hi := range append(cuts, len(set)) {
			c.plan.ScoreInto(out[lo:hi], w, set[lo:hi])
			lo = hi
		}
		for i, k := range seq {
			if got := math.Float64bits(out[i]); got != c.want[k][j] {
				t.Fatalf("%s: candidate %d %v len(w)=%d: ScoreInto %v, Encode·w %v",
					what, i, set[i], len(w), out[i], math.Float64frombits(c.want[k][j]))
			}
		}
	}
}

// TestPlanScoreIndependentOfOrderAndChunking: a candidate's score depends on
// the candidate alone, not on which candidates the memo saw before it or on
// how the set is split across calls. The predefined and fully fused sets are
// scored in order, reversed, shuffled and cut into chunks (evenly, as
// core.Scores splits them, and at random boundaries); sets with repeats and
// off-lattice vectors, and sizes smaller than the blocks, are scored too.
// Every score must equal Encode·w bit for bit, for full and truncated
// weights.
func TestPlanScoreIndependentOfOrderAndChunking(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := planWeights(rng)
	f64 := stencil.Laplacian()
	f64.Type = stencil.Float64
	instances := []stencil.Instance{
		laplacianInstance(),
		blurInstance(),
		{Kernel: f64, Size: stencil.Size3D(129, 67, 33)},
		// Extents below most block edges, so the tiles clip.
		{Kernel: stencil.Laplacian(), Size: stencil.Size3D(37, 19, 5)},
		{Kernel: stencil.Blur(), Size: stencil.Size2D(50, 3)},
	}
	span := func(lo, hi int) []int {
		out := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	for _, q := range instances {
		space := tunespace.NewSpace(q.Kernel.Dims())
		// The universe: the fully fused set, whose first quarter is the
		// predefined set, then off-lattice vectors.
		fused := space.PredefinedFused(1, 2, 3, 4)
		c := newScoreChecker(NewEncoder(), q, ws, append(fused, space.RandomSet(rng, 300)...))
		// Repeats and off-lattice vectors, interleaved with lattice ones.
		mixed := span(len(fused), len(c.cands))
		for i := 0; i < 300; i++ {
			mixed = append(mixed, rng.Intn(len(fused)), mixed[rng.Intn(len(mixed))])
		}
		sets := map[string][]int{
			"predefined": span(0, len(space.Predefined())),
			"fused":      span(0, len(fused)),
			"mixed":      mixed,
		}
		for name, set := range sets {
			what := q.ID() + " " + name
			c.check(t, what, set)

			rev := slices.Clone(set)
			slices.Reverse(rev)
			c.check(t, what+" reversed", rev)

			shuf := slices.Clone(set)
			rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
			c.check(t, what+" shuffled", shuf)

			// Even chunks, as core.Scores cuts a set for its workers, then
			// random cuts, including empty and one-candidate chunks.
			for _, workers := range []int{2, 7} {
				var cuts []int
				chunk := (len(set) + workers - 1) / workers
				for s := chunk; s < len(set); s += chunk {
					cuts = append(cuts, s)
				}
				c.check(t, what+" even chunks", set, cuts...)
			}
			cuts := []int{0, 1, 1, 2}
			for i := 0; i < 20; i++ {
				cuts = append(cuts, rng.Intn(len(set)))
			}
			slices.Sort(cuts)
			c.check(t, what+" random chunks", set, cuts...)
			c.check(t, what+" shuffled random chunks", shuf, cuts...)
		}
	}
}

// TestPlanScoreBoundaries scores sets at the edges of what the scorer
// reuses from one candidate to the next, on float32 and float64 instances:
// every length from 1 to 9, from the start of the set and from inside a run
// of one tile shape, and one past the predefined set (8,641 vectors in 3-D);
// sequences in which consecutive candidates change tile shape, depth, u and
// c all at once, only the depth, or only the shape; and each of those cut
// into calls at every offset from 0 to 8, alone and with a second cut four
// later. Every score must equal Encode·w bit for bit, for full and
// truncated weights.
func TestPlanScoreBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ws := planWeights(rng)
	lap64, blur64 := stencil.Laplacian(), stencil.Blur()
	lap64.Type, blur64.Type = stencil.Float64, stencil.Float64
	instances := []stencil.Instance{
		laplacianInstance(),
		{Kernel: lap64, Size: stencil.Size3D(129, 67, 33)},
		blurInstance(),
		{Kernel: blur64, Size: stencil.Size2D(50, 3)},
	}
	span := func(lo, hi int) []int {
		out := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	for _, q := range instances {
		space := tunespace.NewSpace(q.Kernel.Dims())
		n := len(space.Predefined())
		// The universe: depth k+1 of predefined candidate i is at k*n + i.
		c := newScoreChecker(NewEncoder(), q, ws, space.PredefinedFused(1, 2, 3, 4))
		for l := 1; l <= 9; l++ {
			c.check(t, fmt.Sprintf("%s first %d", q.ID(), l), span(0, l))
			// The predefined sets vary u and c fastest: a run of one tile
			// shape is 16 candidates long, so this set crosses into the next.
			c.check(t, fmt.Sprintf("%s %d from 13", q.ID(), l), span(13, 13+l))
		}
		c.check(t, fmt.Sprintf("%s %d", q.ID(), n+1), span(0, n+1))

		var everything, depths, shapes []int
		for i := 0; i < 600; i++ {
			// A large prime stride changes every field between neighbours.
			everything = append(everything, i*7919%len(c.cands))
		}
		for i := 0; i < 150; i++ {
			base := rng.Intn(n)
			for _, k := range []int{0, 1, 0, 2, 3, 0} {
				depths = append(depths, k*n+base)
			}
			// Candidates 16 apart share u and c and differ in tile shape.
			other := (base + 16) % n
			shapes = append(shapes, base, other, base, (other+16)%n)
		}
		for name, seq := range map[string][]int{"every field": everything, "depth only": depths, "shape only": shapes} {
			what := q.ID() + " " + name
			c.check(t, what, seq)
			for off := 0; off <= 8; off++ {
				c.check(t, fmt.Sprintf("%s cut at %d", what, off), seq, off)
				c.check(t, fmt.Sprintf("%s cut at %d and %d", what, off, off+4), seq, off, off+4)
			}
		}
	}
}

func TestPlanScoreIntoAllocatesNothing(t *testing.T) {
	q := laplacianInstance()
	p := NewEncoder().Plan(q)
	cands := tunespace.NewSpace(3).Predefined()
	w := make([]float64, Dim)
	out := make([]float64, len(cands))
	if n := testing.AllocsPerRun(5, func() { p.ScoreInto(out, w, cands) }); n != 0 {
		t.Errorf("ScoreInto allocates %v times per call, want 0", n)
	}
}

// TestEncodeAllocations pins Encode at its two output slices.
func TestEncodeAllocations(t *testing.T) {
	e := NewEncoder()
	q := laplacianInstance()
	v := tunespace.Vector{Bx: 64, By: 32, Bz: 16, U: 4, C: 2, K: 4}
	if n := testing.AllocsPerRun(20, func() { e.Encode(q, v) }); n > 2 {
		t.Errorf("Encode allocates %v times per call, want ≤ 2", n)
	}
}

// BenchmarkPlanScoreInto scores each predefined set from one plan on one
// goroutine, in the set's order and, as the search engines and the quality
// code hand candidates over, in a random order.
func BenchmarkPlanScoreInto(b *testing.B) {
	w := make([]float64, Dim)
	for i := range w {
		w[i] = float64(i%7) - 3
	}
	for _, q := range []stencil.Instance{blurInstance(), laplacianInstance()} {
		p := NewEncoder().Plan(q)
		cands := tunespace.NewSpace(q.Kernel.Dims()).Predefined()
		shuffled := slices.Clone(cands)
		rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		out := make([]float64, len(cands))
		for _, bc := range []struct {
			name  string
			cands []tunespace.Vector
		}{
			{fmt.Sprintf("%dD", q.Kernel.Dims()), cands},
			{fmt.Sprintf("%dD-shuffled", q.Kernel.Dims()), shuffled},
		} {
			b.Run(bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.ScoreInto(out, w, bc.cands)
				}
			})
		}
	}
}
