package exec

import (
	"unsafe"

	"repro/internal/grid"
)

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches (cpuid and xgetbv).
func cpuHasAVX2() bool

// spansAVX2F64 computes every (base, n) pair of spans: for x in [0, n),
// dst[base+x] = w[0]·data[0][base+x+off[0]] + … + w[nt-1]·data[nt-1][…],
// folded left to right. vecs (1, 2 or 4) is the number of 4-lane vectors
// per point block; the points left over step down through the narrower
// blocks (4, then 2, then 1 vector) and then run one at a time. The body has no bounds checks: every read and write must lie
// inside its slice, which Compile proves once per program (checkReads) and
// Program.Run completes by rejecting short grids. len(off) and len(w) must
// be at least len(data), and len(spans) even.
//
//go:noescape
func spansAVX2F64(dst []float64, data [][]float64, off []int, w []float64, spans []int32, vecs int)

// spansAVX2F32 is spansAVX2F64 for float32, with 8-lane vectors.
//
//go:noescape
func spansAVX2F32(dst []float32, data [][]float32, off []int, w []float32, spans []int32, vecs int)

// spansAVX2 runs the span kernel of T's element type.
func spansAVX2[T grid.Float](dst []T, data [][]T, off []int, w []T, spans []int32, vecs int) {
	var zero T
	if unsafe.Sizeof(zero) == 8 {
		spansAVX2F64(*(*[]float64)(unsafe.Pointer(&dst)), *(*[][]float64)(unsafe.Pointer(&data)),
			off, *(*[]float64)(unsafe.Pointer(&w)), spans, vecs)
		return
	}
	spansAVX2F32(*(*[]float32)(unsafe.Pointer(&dst)), *(*[][]float32)(unsafe.Pointer(&data)),
		off, *(*[]float32)(unsafe.Pointer(&w)), spans, vecs)
}
