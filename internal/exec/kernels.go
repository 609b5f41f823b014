package exec

import (
	"repro/internal/shape"
	"repro/internal/stencil"
)

// This file derives the executable realization of every model kernel from
// the kernel itself. The learning system sees only access patterns; the
// examples and the Measure evaluation mode run these terms for real.

// accessRule gives the buffer and weight of a Table III kernel's term for
// access c of offset p.
type accessRule func(p shape.Point, c int) (buffer int, weight float64)

// textbook holds the textbook operator of each Table III kernel, one rule
// per access. Executable applies a rule only to the kernel that
// stencil.KernelByName builds under the same name, so p always lies in that
// kernel's shape.
var textbook = map[string]accessRule{
	// The 5×5 box blur.
	"blur": func(shape.Point, int) (int, float64) { return 0, 1.0 / 25 },
	// The 3×3 edge-detection (discrete laplacian-of-box) kernel.
	"edge": func(p shape.Point, _ int) (int, float64) { return 0, centreOr(p, 8, -1) },
	// Smoothed game of life: the centre keeps half its weight, the eight
	// neighbours share the other half.
	"game-of-life": func(p shape.Point, _ int) (int, float64) { return 0, centreOr(p, 0.5, 0.5/8) },
	// The 4th-order wave-equation update: a radius-2 laplacian star with the
	// classic (4/3, -1/12) coefficients scaled by (c·dt/dx)² = 0.25. The
	// centre's second access is the previous time-step value (the "+1" of
	// Table III's access accounting).
	"wave-1": func(p shape.Point, c int) (int, float64) {
		const c2dt2 = 0.25
		_, r := axisOf(p)
		switch {
		case r == 0 && c == 0:
			return 0, 2.0 - c2dt2*7.5 // 2 - c²dt²·(3·5/2)
		case r == 0:
			return 0, -1
		}
		return 0, c2dt2 * [2]float64{4.0 / 3, -1.0 / 12}[max(r, -r)-1]
	},
	// The 4×4×4 tricubic gather: Catmull-Rom weights at parameter 0.5, each
	// buffer holding one spatial stage.
	"tricubic": func(p shape.Point, _ int) (int, float64) {
		w := [4]float64{-0.0625, 0.5625, 0.5625, -0.0625}
		return (p.X + p.Y + p.Z + 3) % 3, w[p.X+1] * w[p.Y+1] * w[p.Z+1]
	},
	// Divergence: buffer a holds the vector component along axis a, read
	// with a central difference along that axis.
	"divergence": func(p shape.Point, _ int) (int, float64) {
		a, r := axisOf(p)
		return a, 0.5 * float64(r)
	},
	// The central-difference gradient proxy: the six axis neighbours with
	// alternating signs.
	"gradient": func(p shape.Point, _ int) (int, float64) {
		_, r := axisOf(p)
		return 0, 0.5 * float64(r)
	},
	// The 7-point laplacian.
	"laplacian": func(p shape.Point, _ int) (int, float64) { return 0, centreOr(p, -6, 1) },
	// The 6th-order 19-point laplacian with the standard (3/2, -3/20, 1/90)
	// coefficients.
	"laplacian6": func(p shape.Point, _ int) (int, float64) {
		_, r := axisOf(p)
		if r == 0 {
			return 0, -3 * 49.0 / 18
		}
		return 0, [3]float64{3.0 / 2, -3.0 / 20, 1.0 / 90}[max(r, -r)-1]
	},
}

// centreOr returns centre at the origin and other elsewhere.
func centreOr(p shape.Point, centre, other float64) float64 {
	if p == (shape.Point{}) {
		return centre
	}
	return other
}

// axisOf returns the axis (0 = x, 1 = y, 2 = z) and signed distance of an
// on-axis offset; the origin has distance 0.
func axisOf(p shape.Point) (axis, r int) {
	switch {
	case p.Y != 0:
		return 1, p.Y
	case p.Z != 0:
		return 2, p.Z
	}
	return 0, p.X
}

// Executable returns the executable realization of a model kernel: one term
// per access of k.Shape, in shape.Points order.
//
// A Table III kernel — one equal in shape and buffers to the kernel
// stencil.KernelByName builds under its name — takes its textbook weights
// and buffers. Any other kernel averages its accesses (weight
// 1/TotalAccesses) and spreads them over all of its buffers: access i reads
// buffer i % Buffers. Terms come only from k's accesses, so a name can
// never make the executor read outside k's halo.
func Executable(k *stencil.Kernel) *LinearKernel {
	rule := textbookRule(k)
	total := k.Shape.TotalAccesses()
	lk := &LinearKernel{Name: k.Name, Buffers: k.Buffers, Terms: make([]Term, 0, total)}
	for _, p := range k.Shape.Points() {
		for c := range k.Shape.Multiplicity(p) {
			t := Term{Buffer: len(lk.Terms) % k.Buffers, Offset: p, Weight: 1 / float64(total)}
			if rule != nil {
				t.Buffer, t.Weight = rule(p, c)
			}
			lk.Terms = append(lk.Terms, t)
		}
	}
	return lk
}

// textbookRule returns the textbook rule of a Table III kernel: one whose
// name has a rule and whose shape and buffers equal the kernel
// stencil.KernelByName builds under that name. Any other kernel gets nil.
func textbookRule(k *stencil.Kernel) accessRule {
	r, ok := textbook[k.Name]
	if !ok {
		return nil
	}
	if tk, err := stencil.KernelByName(k.Name); err == nil && tk.Buffers == k.Buffers && tk.Shape.Equal(k.Shape) {
		return r
	}
	return nil
}
