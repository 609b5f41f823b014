package exec

import (
	"fmt"

	"repro/internal/shape"
	"repro/internal/stencil"
)

// This file provides executable realizations (weights included) of the nine
// Table III benchmark kernels. Weights follow the textbook forms of each
// operator; the learning system never sees them — only the access patterns —
// but the examples and the Measure evaluation mode run them for real.

// BlurExec is the 5×5 box blur.
func BlurExec() *LinearKernel {
	k := &LinearKernel{Name: "blur", Buffers: 1}
	for y := -2; y <= 2; y++ {
		for x := -2; x <= 2; x++ {
			k.Terms = append(k.Terms, Term{Offset: shape.Point{X: x, Y: y}, Weight: 1.0 / 25})
		}
	}
	return k
}

// EdgeExec is the 3×3 edge-detection (discrete laplacian-of-box) kernel.
func EdgeExec() *LinearKernel {
	k := &LinearKernel{Name: "edge", Buffers: 1}
	for y := -1; y <= 1; y++ {
		for x := -1; x <= 1; x++ {
			w := -1.0
			if x == 0 && y == 0 {
				w = 8
			}
			k.Terms = append(k.Terms, Term{Offset: shape.Point{X: x, Y: y}, Weight: w})
		}
	}
	return k
}

// GameOfLifeExec is the smoothed game-of-life neighbourhood rule: the centre
// keeps half its weight, the eight neighbours share the other half.
func GameOfLifeExec() *LinearKernel {
	k := &LinearKernel{Name: "game-of-life", Buffers: 1}
	for y := -1; y <= 1; y++ {
		for x := -1; x <= 1; x++ {
			w := 0.5 / 8
			if x == 0 && y == 0 {
				w = 0.5
			}
			k.Terms = append(k.Terms, Term{Offset: shape.Point{X: x, Y: y}, Weight: w})
		}
	}
	return k
}

// WaveExec is the 4th-order wave-equation update: a radius-2 laplacian star
// with the classic (-1/12, 4/3) coefficients plus the centre terms.
func WaveExec() *LinearKernel {
	const c2dt2 = 0.25 // (c·dt/dx)² CFL-stable constant
	k := &LinearKernel{Name: "wave-1", Buffers: 1}
	centre := 2.0 - c2dt2*7.5 // 2 - c²dt²·(3·5/2)
	k.Terms = append(k.Terms, Term{Offset: shape.Point{}, Weight: centre})
	for _, axis := range [][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
		for _, d := range []struct {
			r int
			w float64
		}{{1, 4.0 / 3}, {2, -1.0 / 12}} {
			for _, sgn := range []int{1, -1} {
				p := shape.Point{X: axis[0] * d.r * sgn, Y: axis[1] * d.r * sgn, Z: axis[2] * d.r * sgn}
				k.Terms = append(k.Terms, Term{Offset: p, Weight: c2dt2 * d.w})
			}
		}
	}
	// The "+1": the previous time-step value, folded into the same buffer
	// as a second centre read (matching the Table III access accounting).
	k.Terms = append(k.Terms, Term{Offset: shape.Point{}, Weight: -1})
	return k
}

// TricubicExec is the 4×4×4 tricubic interpolation gather over 3 buffers:
// each buffer holds one spatial stage and contributes cubic weights.
func TricubicExec() *LinearKernel {
	// Catmull-Rom cubic weights at parameter 0.5.
	w := []float64{-0.0625, 0.5625, 0.5625, -0.0625}
	k := &LinearKernel{Name: "tricubic", Buffers: 3}
	for z := -1; z <= 2; z++ {
		for y := -1; y <= 2; y++ {
			for x := -1; x <= 2; x++ {
				buf := (x + y + z + 3) % 3
				weight := w[x+1] * w[y+1] * w[z+1]
				k.Terms = append(k.Terms, Term{
					Buffer: buf,
					Offset: shape.Point{X: x, Y: y, Z: z},
					Weight: weight,
				})
			}
		}
	}
	return k
}

// DivergenceExec reads three vector-component buffers with central
// differences along their respective axes.
func DivergenceExec() *LinearKernel {
	const inv2h = 0.5
	return &LinearKernel{Name: "divergence", Buffers: 3, Terms: []Term{
		{Buffer: 0, Offset: shape.Point{X: 1}, Weight: inv2h},
		{Buffer: 0, Offset: shape.Point{X: -1}, Weight: -inv2h},
		{Buffer: 1, Offset: shape.Point{Y: 1}, Weight: inv2h},
		{Buffer: 1, Offset: shape.Point{Y: -1}, Weight: -inv2h},
		{Buffer: 2, Offset: shape.Point{Z: 1}, Weight: inv2h},
		{Buffer: 2, Offset: shape.Point{Z: -1}, Weight: -inv2h},
	}}
}

// GradientExec is the central-difference gradient magnitude proxy (sum of
// the six axis neighbours with alternating signs).
func GradientExec() *LinearKernel {
	const inv2h = 0.5
	return &LinearKernel{Name: "gradient", Buffers: 1, Terms: []Term{
		{Offset: shape.Point{X: 1}, Weight: inv2h},
		{Offset: shape.Point{X: -1}, Weight: -inv2h},
		{Offset: shape.Point{Y: 1}, Weight: inv2h},
		{Offset: shape.Point{Y: -1}, Weight: -inv2h},
		{Offset: shape.Point{Z: 1}, Weight: inv2h},
		{Offset: shape.Point{Z: -1}, Weight: -inv2h},
	}}
}

// LaplacianExec is the 7-point laplacian.
func LaplacianExec() *LinearKernel {
	k := &LinearKernel{Name: "laplacian", Buffers: 1, Terms: []Term{
		{Offset: shape.Point{}, Weight: -6},
	}}
	for _, p := range []shape.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {Z: 1}, {Z: -1}} {
		k.Terms = append(k.Terms, Term{Offset: p, Weight: 1})
	}
	return k
}

// Laplacian6Exec is the 6th-order 19-point laplacian with the standard
// (3/2, -3/20, 1/90) coefficients.
func Laplacian6Exec() *LinearKernel {
	k := &LinearKernel{Name: "laplacian6", Buffers: 1, Terms: []Term{
		{Offset: shape.Point{}, Weight: -3 * 49.0 / 18},
	}}
	coeff := []float64{3.0 / 2, -3.0 / 20, 1.0 / 90}
	for _, axis := range [][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
		for r := 1; r <= 3; r++ {
			for _, sgn := range []int{1, -1} {
				p := shape.Point{X: axis[0] * r * sgn, Y: axis[1] * r * sgn, Z: axis[2] * r * sgn}
				k.Terms = append(k.Terms, Term{Offset: p, Weight: coeff[r-1]})
			}
		}
	}
	return k
}

// ExecutableByName returns the executable realization of a Table III kernel.
func ExecutableByName(name string) (*LinearKernel, error) {
	switch name {
	case "blur":
		return BlurExec(), nil
	case "edge":
		return EdgeExec(), nil
	case "game-of-life":
		return GameOfLifeExec(), nil
	case "wave-1":
		return WaveExec(), nil
	case "tricubic":
		return TricubicExec(), nil
	case "divergence":
		return DivergenceExec(), nil
	case "gradient":
		return GradientExec(), nil
	case "laplacian":
		return LaplacianExec(), nil
	case "laplacian6":
		return Laplacian6Exec(), nil
	default:
		return nil, fmt.Errorf("exec: no executable kernel %q", name)
	}
}

// Executable returns the executable realization of a model kernel: the
// hand-written benchmark version when the name and the structure (access
// pattern and buffer count) match a Table III kernel, otherwise the generic
// uniform-weight conversion. A custom kernel that only borrows a Table III
// name must not run that kernel's terms: they may reach outside its grid.
func Executable(k *stencil.Kernel) *LinearKernel {
	if lk, err := ExecutableByName(k.Name); err == nil && lk.Buffers == k.Buffers && lk.Shape().Equal(k.Shape) {
		return lk
	}
	return FromStencil(k)
}
