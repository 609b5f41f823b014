package feature

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// fuzzVectorBytes is the width of one encoded candidate: three 16-bit block
// edges, then one signed byte each for u, c and K.
const fuzzVectorBytes = 9

// fuzzCandidates decodes data into raw tuning vectors, at most 64 of them;
// the caller clamps them into a space.
func fuzzCandidates(data []byte) []tunespace.Vector {
	var out []tunespace.Vector
	for len(data) >= fuzzVectorBytes && len(out) < 64 {
		out = append(out, tunespace.Vector{
			Bx: int(binary.LittleEndian.Uint16(data[0:])) % 1100,
			By: int(binary.LittleEndian.Uint16(data[2:])) % 1100,
			Bz: int(binary.LittleEndian.Uint16(data[4:])) % 1100,
			U:  int(int8(data[6])),
			C:  int(int8(data[7])),
			K:  int(int8(data[8])),
		})
		data = data[fuzzVectorBytes:]
	}
	return out
}

// fuzzEncode is fuzzCandidates' inverse for the seed corpus.
func fuzzEncode(vs ...tunespace.Vector) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint16(b, uint16(v.Bx))
		b = binary.LittleEndian.AppendUint16(b, uint16(v.By))
		b = binary.LittleEndian.AppendUint16(b, uint16(v.Bz))
		b = append(b, byte(int8(v.U)), byte(int8(v.C)), byte(int8(v.K)))
	}
	return b
}

// FuzzPlanScore turns arbitrary bytes into a candidate list (clamped into
// each instance's space, so every vector is legal) and scores it from a plan
// on fixed 2-D and 3-D, float32 and float64 instances, including sizes the
// blocks overhang. Every score must equal Encode·w bit for bit, for the full
// weights and for weights truncated below Dim, whatever order and repeats
// the list has; nothing may panic. ScoreChunks, which the selection of the
// best candidates streams, must hand over the list repeated past several
// chunks in consecutive chunks of at most chunkLen scores, bit for bit the
// scores ScoreInto gives the whole repeated list.
func FuzzPlanScore(f *testing.F) {
	lo := tunespace.Vector{Bx: tunespace.MinBlock, By: tunespace.MinBlock, Bz: tunespace.MinBlock,
		U: tunespace.MinUnroll, C: tunespace.MinChunk, K: 1}
	hi := tunespace.Vector{Bx: tunespace.MaxBlock, By: tunespace.MaxBlock, Bz: tunespace.MaxBlock,
		U: tunespace.MaxUnroll, C: tunespace.MaxChunk, K: tunespace.MaxFuse}
	mix := tunespace.Vector{Bx: lo.Bx, By: hi.By, Bz: lo.Bz, U: hi.U, C: lo.C, K: hi.K}
	fused := tunespace.Vector{Bx: 64, By: 32, Bz: 16, U: 4, C: 2, K: 3}
	f.Add(fuzzEncode(lo, hi))
	f.Add(fuzzEncode(hi, lo, mix, lo))
	f.Add(fuzzEncode(fused))
	f.Add(fuzzEncode(lo, fused, fused, hi, mix))
	// Sets of one to nine vectors whose neighbours change tile shape, depth,
	// u and c, alone and together.
	edges := []tunespace.Vector{lo, fused, mix, hi,
		{Bx: 64, By: 32, Bz: 16, U: 4, C: 2, K: 1},
		{Bx: 64, By: 32, Bz: 16, U: 4, C: 2, K: 4},
		{Bx: 64, By: 32, Bz: 8, U: 4, C: 2, K: 4},
		{Bx: 64, By: 32, Bz: 8, U: 8, C: 2, K: 4},
		{Bx: 64, By: 32, Bz: 8, U: 8, C: 1, K: 4},
	}
	for n := 1; n <= len(edges); n++ {
		f.Add(fuzzEncode(edges[:n]...))
	}

	f64 := stencil.Laplacian()
	f64.Type = stencil.Float64
	instances := []stencil.Instance{
		laplacianInstance(),
		blurInstance(),
		{Kernel: f64, Size: stencil.Size3D(129, 67, 33)},
		{Kernel: stencil.Laplacian(), Size: stencil.Size3D(37, 19, 5)},
		{Kernel: stencil.Blur(), Size: stencil.Size2D(50, 3)},
	}
	enc := NewEncoder()
	plans := make([]*Plan, len(instances))
	for i, q := range instances {
		plans[i] = enc.Plan(q)
	}
	ws := planWeights(rand.New(rand.NewSource(13)))

	f.Fuzz(func(t *testing.T, data []byte) {
		raw := fuzzCandidates(data)
		cands := make([]tunespace.Vector, len(raw))
		out := make([]float64, len(raw))
		for qi, q := range instances {
			space := tunespace.NewSpace(q.Kernel.Dims())
			for i, v := range raw {
				cands[i] = space.Clamp(v)
			}
			for _, w := range ws {
				plans[qi].ScoreInto(out, w, cands)
				for i, v := range cands {
					if want := enc.Encode(q, v).Dot(w); math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("%s candidate %d %v len(w)=%d: ScoreInto %v, Encode·w %v",
							q.ID(), i, v, len(w), out[i], want)
					}
				}
			}
			if len(cands) == 0 {
				continue
			}
			long := slices.Repeat(cands, (3*chunkLen)/len(cands)+1)
			full := make([]float64, len(long))
			plans[qi].ScoreInto(full, ws[0], long)
			next := 0
			plans[qi].ScoreChunks(ws[0], long, func(first int, scores []float64) {
				if first != next || len(scores) == 0 || len(scores) > chunkLen {
					t.Fatalf("%s: chunk of %d scores at %d, want at most %d at %d", q.ID(), len(scores), first, chunkLen, next)
				}
				for i, v := range scores {
					if math.Float64bits(v) != math.Float64bits(full[first+i]) {
						t.Fatalf("%s candidate %d: chunk score %v, ScoreInto %v", q.ID(), first+i, v, full[first+i])
					}
				}
				next += len(scores)
			})
			if next != len(long) {
				t.Fatalf("%s: chunks covered %d of %d candidates", q.ID(), next, len(long))
			}
		}
	})
}
