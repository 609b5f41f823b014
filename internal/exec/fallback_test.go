package exec

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/tunespace"
)

// runFallbackCase runs k three ways on the same input: through a compiled
// program's span plan, through a second program whose span plan is cleared
// (the on-the-fly row-base fallback pool.drain takes for grids too large
// for int32 spans), and through Reference. All three must agree bit for bit.
func runFallbackCase[T grid.Float](t *testing.T, k *LinearKernel, nx, ny, nz int, tv tunespace.Vector) {
	t.Helper()
	spanRunner, fallbackRunner := NewRunnerOf[T](), NewRunnerOf[T]()
	defer spanRunner.Close()
	defer fallbackRunner.Close()

	spanOut, ins := buildWorkspaceOf[T](k, nx, ny, nz)
	fallbackOut := grid.NewOf[T](nx, ny, nz, spanOut.Halo, spanOut.HaloZ)
	refOut := grid.NewOf[T](nx, ny, nz, spanOut.Halo, spanOut.HaloZ)

	if err := spanRunner.Run(k, spanOut, ins, tv); err != nil {
		t.Fatalf("%s: span run: %v", k.Name, err)
	}
	pr, err := fallbackRunner.Compile(k, fallbackOut, ins, tv)
	if err != nil {
		t.Fatalf("%s: compile: %v", k.Name, err)
	}
	if pr.spans == nil {
		t.Fatalf("%s: small grid compiled without a span plan", k.Name)
	}
	pr.spans, pr.spanStart = nil, nil
	if err := pr.Run(fallbackOut, ins); err != nil {
		t.Fatalf("%s: fallback run: %v", k.Name, err)
	}
	if err := fallbackRunner.Reference(k, refOut, ins); err != nil {
		t.Fatalf("%s: reference: %v", k.Name, err)
	}

	spanData, fallbackData, refData := spanOut.Data(), fallbackOut.Data(), refOut.Data()
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := spanOut.Index(x, y, z)
				got := math.Float64bits(float64(fallbackData[i]))
				if got != math.Float64bits(float64(spanData[i])) || got != math.Float64bits(float64(refData[i])) {
					t.Fatalf("%s %v: (%d,%d,%d) fallback %v, spans %v, reference %v",
						k.Name, tv, x, y, z, fallbackData[i], spanData[i], refData[i])
				}
			}
		}
	}
}

// TestOversizeFallbackMatchesSpans covers the compiled path's fallback for
// grids too large for the int32 span plan: every fused test kernel, in both
// element types, on ragged tiles and at every unroll width, must match the
// span path and Reference bit for bit.
func TestOversizeFallbackMatchesSpans(t *testing.T) {
	vectors := []tunespace.Vector{
		{Bx: 8, By: 4, Bz: 2, U: 1, C: 1},
		{Bx: 16, By: 2, Bz: 4, U: 2, C: 3},
		{Bx: 4, By: 8, Bz: 8, U: 4, C: 2},
	}
	for _, tc := range fusedTestKernels() {
		nz := 1
		if tc.threeD {
			nz = 7
		}
		for _, tv := range vectors {
			runFallbackCase[float64](t, tc.k, 19, 11, nz, tv)
			runFallbackCase[float32](t, tc.k, 19, 11, nz, tv)
		}
	}
}

// TestFusedPlanarShapesOn3DGrids runs the 2-D shapes star5 and box9 through the fused engine on 3-D grids, where the stream axis is z
// and the stream radius is zero: every row reads one source plane, with
// the y neighbours at in-plane offsets.
func TestFusedPlanarShapesOn3DGrids(t *testing.T) {
	r64 := NewRunner()
	defer r64.Close()
	r32 := NewRunnerOf[float32]()
	defer r32.Close()
	for _, k := range []*LinearKernel{star5Kernel(), box9Kernel()} {
		for _, K := range []int{1, 2, 3} {
			tv := tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 2, C: 1, K: K}
			runFusedCase(t, r64, k, 9, 7, 6, tv)
			runFusedCase(t, r32, k, 9, 7, 6, tv)
		}
	}
}
