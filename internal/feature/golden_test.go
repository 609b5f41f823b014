package feature

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// allBlockSets enumerates every Blocks ablation, the full encoding first.
func allBlockSets() []Blocks {
	var out []Blocks
	for m := 15; m >= 0; m-- {
		out = append(out, Blocks{Pattern: m&8 != 0, Size: m&4 != 0, Tuning: m&2 != 0, Interactions: m&1 != 0})
	}
	return out
}

// encodingDigestWant is the SHA-256 of every vector encodingDigest encodes.
// Persisted models score the encoding's exact bits, so a change to it is a
// change to every stored model's rankings and must be deliberate.
const encodingDigestWant = "17e28209c2edab00b733069744073a48af85d92dc4f34ff25e498df4c865ee6d"

// encodingDigest hashes the index and value bits of Encode over every Table
// III benchmark instance and the fusion-extended predefined set (all depths),
// under every block ablation, on strided subsets that cover every
// parameter value.
func encodingDigest() string {
	h := sha256.New()
	var buf []byte
	for bi, blocks := range allBlockSets() {
		enc := NewEncoderWithBlocks(blocks)
		stride := 7
		if bi > 0 {
			stride = 61
		}
		for _, q := range stencil.Benchmarks() {
			cands := tunespace.NewSpace(q.Kernel.Dims()).PredefinedFused(1, 2, 3, 4)
			for i := 0; i < len(cands); i += stride {
				v := enc.Encode(q, cands[i])
				buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(v.NNZ()))
				for j, idx := range v.Idx {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(idx))
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Val[j]))
				}
				h.Write(buf)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestEncodingGolden(t *testing.T) {
	if got := encodingDigest(); got != encodingDigestWant {
		t.Errorf("encoding digest %s, want %s", got, encodingDigestWant)
	}
}
