package core

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/feature"
	"repro/internal/stencil"
	"repro/internal/svmrank"
	"repro/internal/tunespace"
)

// FuzzSelection checks the selections against the full scores. The
// input's first byte picks k and the weights: normal, small-integer (most
// scores tie), zero, or ±1e308, whose scores overflow to ±Inf and NaN; the
// rest decodes into tuning vectors, seven bytes each, clamped into the
// space. The list is repeated past several of the scorer's chunks. Best
// must fail exactly when svmrank.ArgMax of Scores is −1 and otherwise be
// the candidate it picks, and HybridTopK must fail then too and otherwise
// measure the candidates TopK picks (topK), in TopK's order.
func FuzzSelection(f *testing.F) {
	f.Add([]byte{0, 2, 4, 8, 4, 0, 1, 1})
	f.Add([]byte{0x41, 2, 4, 8, 4, 0, 1, 1, 8, 2, 16, 2, 1, 2})
	f.Add([]byte{0x82, 9, 9, 9, 9, 9, 9, 9, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{0xff, 10, 3, 5, 6, 3, 2, 4, 2, 9, 1, 0, 4, 3, 7, 7, 7, 7, 7, 7, 7})
	// Five vectors repeat with a period that does not divide a chunk, so
	// equal scores in later chunks belong to other vectors; under the zero
	// model every score ties.
	five := []byte{1, 2, 3, 0, 1, 0, 1, 4, 5, 6, 2, 2, 0, 1, 7, 8, 9, 4, 4, 0, 2, 3, 3, 3, 8, 8, 0, 1, 6, 5, 4, 0, 3, 0, 3}
	f.Add(append([]byte{0x83}, five...))
	f.Add(append([]byte{0x43}, five...))
	f.Add([]byte{0xc1, 2, 4, 8, 4, 0, 1, 1, 8, 2, 16, 2, 1, 2})
	rng := rand.New(rand.NewSource(29))
	normal, small, huge := make([]float64, feature.Dim), make([]float64, feature.Dim), make([]float64, feature.Dim)
	for i := range normal {
		normal[i] = rng.NormFloat64()
		small[i] = float64(rng.Intn(3) - 1)
		huge[i] = float64(rng.Intn(2)*2-1) * 1e308
	}
	tuners := []*Tuner{
		New(&svmrank.Model{W: normal}),
		New(&svmrank.Model{W: small}),
		New(&svmrank.Model{W: make([]float64, feature.Dim)}),
		New(&svmrank.Model{W: huge}),
	}
	instances := []stencil.Instance{
		{Kernel: stencil.Blur(), Size: stencil.Size2D(1576, 344)},
		{Kernel: stencil.Laplacian(), Size: stencil.Size3D(392, 356, 300)},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		tu := tuners[int(data[0]>>6)%len(tuners)]
		k := 1 + int(data[0]&0x3f)
		var raw []tunespace.Vector
		for b := data[1:]; len(b) >= 7 && len(raw) < 64; b = b[7:] {
			raw = append(raw, tunespace.Vector{
				Bx: 1 << (b[0] % 11), By: 1 << (b[1] % 11), Bz: 1 << (b[2] % 11),
				U: int(b[3]), C: int(binary.LittleEndian.Uint16(b[4:]) % 20), K: int(b[6]),
			})
		}
		for _, q := range instances {
			space := tunespace.NewSpace(q.Kernel.Dims())
			cands := make([]tunespace.Vector, len(raw))
			for i, v := range raw {
				cands[i] = space.Clamp(v)
			}
			cands = slices.Repeat(cands, 1000/len(cands)+1)
			scores, err := tu.Scores(q, cands)
			if err != nil {
				t.Fatal(err)
			}
			best, err := tu.Best(q, cands)
			argMax := svmrank.ArgMax(scores)
			if (err != nil) != (argMax < 0) {
				t.Fatalf("%s: Best error %v, ArgMax of the scores %d", q.ID(), err, argMax)
			}
			if argMax >= 0 && best != cands[argMax] {
				t.Fatalf("%s: Best %v, ArgMax of the scores %v", q.ID(), best, cands[argMax])
			}
			var got []tunespace.Vector
			_, err = tu.HybridTopK(q, cands, k, func(v tunespace.Vector) float64 {
				got = append(got, v)
				return 0
			})
			if (err != nil) != (argMax < 0) {
				t.Fatalf("%s: HybridTopK error %v, ArgMax of the scores %d", q.ID(), err, argMax)
			}
			if argMax < 0 {
				continue
			}
			want := topK(scores, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: measured %d candidates, want %d", q.ID(), k, len(got), len(want))
			}
			for i, o := range want {
				if got[i] != cands[o] {
					t.Fatalf("%s k=%d: rank %d is %v, TopK of the scores has %v", q.ID(), k, i, got[i], cands[o])
				}
			}
		}
	})
}
