package dataset

import (
	"time"

	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// CompileCost models the PATUS + gcc double compilation time for one code
// variant, so Set.SimulatedCompileTime can report the cost column of the
// paper's Table II. Variant construction itself is immediate in Go (the
// executor specializes at compile time, see internal/exec); the paper
// reports ~32 hours for the full training set. The dominant term is gcc
// digesting the fully unrolled vectorized inner body, which grows with the
// stencil density, the unroll factor, and the fusion depth — each fused time
// level replicates the inner body once more.
func CompileCost(k *stencil.Kernel, t tunespace.Vector) time.Duration {
	// Baseline toolchain invocation: PATUS translation + gcc bookkeeping.
	base := 1500 * time.Millisecond
	// Emitted inner-loop statements: one FMA per access per unroll replica,
	// per fused time level.
	statements := float64(k.Shape.TotalAccesses()) * float64(t.U+1) * float64(t.EffFuse())
	body := time.Duration(statements*25) * time.Millisecond
	return base + body
}
