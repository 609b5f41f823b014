package feature

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// TestPlanScoreBitIdenticalToEncodeDot pins the plan's contract: scoring a
// candidate from the instance's head plus its tail gives exactly the bits of
// Encode followed by Dot, for every Table III kernel at power-of-two and odd
// sizes, over the fusion-extended predefined set plus random off-lattice
// vectors, under every block ablation, with the full weight vector and with
// weight vectors truncated below Dim (older, narrower models).
func TestPlanScoreBitIdenticalToEncodeDot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	full := make([]float64, Dim)
	for i := range full {
		full[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	// Cuts inside the pattern block, inside the size block, inside the
	// tuning block and at the pre-fusion width.
	ws := [][]float64{full, full[:200], full[:idxSizeZ], full[:idxBx+3], full[:idxFuse]}

	sizes := map[int][]stencil.Size{
		2: {stencil.Size2D(1024, 768), stencil.Size2D(999, 37)},
		3: {stencil.Size3D(128, 128, 128), stencil.Size3D(129, 67, 33)},
	}
	checks := 0
	for _, blocks := range allBlockSets() {
		enc := NewEncoderWithBlocks(blocks)
		// Strided subsets keep the test fast; the strides are prime, so each
		// subset still reaches every parameter value.
		stride := 7
		if blocks != AllBlocks() {
			stride = 61
		}
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
							t.Fatalf("%+v %s %v len(w)=%d: plan score %v, Encode·w %v",
								blocks, q.ID(), c, len(w), got[j][i], want)
						}
						checks++
					}
				}
			}
		}
	}
	t.Logf("%d bit-identity checks", checks)
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
