//go:build !amd64

package exec

import "repro/internal/grid"

// cpuHasAVX2 is false off amd64: every program runs the portable passes.
func cpuHasAVX2() bool { return false }

// spansAVX2 is never called off amd64, where useAVX2 is always false.
func spansAVX2[T grid.Float](dst []T, data [][]T, off []int, w []T, spans []int32, vecs int) {
	panic("exec: AVX2 span kernel called off amd64")
}
