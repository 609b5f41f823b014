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

// encodingDigestWant is the SHA-256 of every vector encodingDigest encodes.
// Persisted models score the encoding's exact bits, so a change to it is a
// change to every stored model's rankings and must be deliberate.
const encodingDigestWant = "24c10c9d0e95368ae2c09653412964c5098c72052a1060fac92bbbbda2b08c2e"

// encodingDigest hashes the index and value bits of Encode over every Table
// III benchmark instance and the fusion-extended predefined set (all depths),
// on a strided subset that covers every parameter value.
func encodingDigest() string {
	h := sha256.New()
	var buf []byte
	enc := NewEncoder()
	const stride = 7
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
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestEncodingGolden(t *testing.T) {
	if got := encodingDigest(); got != encodingDigestWant {
		t.Errorf("encoding digest %s, want %s", got, encodingDigestWant)
	}
}
