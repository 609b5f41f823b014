package stencil

import (
	"fmt"

	"repro/internal/shape"
)

// This file defines the nine benchmark kernels and seventeen test benchmarks
// of Table III in the paper.

// Blur is the 2-D 5×5 box blur (1 float buffer).
func Blur() *Kernel {
	return &Kernel{
		Name:    "blur",
		Shape:   shape.Square(2),
		Buffers: 1,
		Type:    Float32,
		// 25 loads, 25 multiply-adds.
		FlopsPerPoint: 50,
	}
}

// Edge is the 2-D 3×3 edge-detection kernel (1 float buffer).
func Edge() *Kernel {
	return &Kernel{
		Name:          "edge",
		Shape:         shape.Square(1),
		Buffers:       1,
		Type:          Float32,
		FlopsPerPoint: 18,
	}
}

// GameOfLife is the 2-D 3×3 Conway's life smoothing kernel (1 float buffer).
func GameOfLife() *Kernel {
	return &Kernel{
		Name:          "game-of-life",
		Shape:         shape.Square(1),
		Buffers:       1,
		Type:          Float32,
		FlopsPerPoint: 12,
	}
}

// Wave is the 3-D 4th-order wave-equation kernel: a 13-point laplacian star
// plus one extra read of the previous time step ("13 laplacian + 1", 1 float
// buffer in Table III's "buffer read" accounting plus the t-1 field).
func Wave() *Kernel {
	s := shape.Laplacian3D(2)
	// The "+1" read: the previous-timestep value at the centre, modeled as a
	// second access to the origin per Sec. III-A's sum-of-accesses rule.
	s.Add(shape.Point{X: 0, Y: 0, Z: 0}, 1)
	return &Kernel{
		Name:          "wave-1",
		Shape:         s,
		Buffers:       1,
		Type:          Float32,
		FlopsPerPoint: 30,
	}
}

// Tricubic is the 3-D 4×4×4 tricubic-interpolation kernel (3 float buffers).
// Its 64-point cube is expressed as offsets in {-1..2}³, which we centre as
// a radius-2 cube restricted to the 4³ corner — the feature encoding only
// needs the enclosing offset, so we use the dense 4×4×4 sub-cube.
func Tricubic() *Kernel {
	s := shape.New()
	for z := -1; z <= 2; z++ {
		for y := -1; y <= 2; y++ {
			for x := -1; x <= 2; x++ {
				s.Add(shape.Point{X: x, Y: y, Z: z}, 1)
			}
		}
	}
	return &Kernel{
		Name:          "tricubic",
		Shape:         s,
		Buffers:       3,
		Type:          Float32,
		FlopsPerPoint: 192, // 64 points × 3 ops (weight eval + multiply-add)
	}
}

// Divergence is the 3-D 6-point star without the centre, reading 3 double
// buffers in different line orientations (x, y and z lines respectively) —
// the non-homogeneous access case discussed in Sec. VI-A.
func Divergence() *Kernel {
	x := shape.New(shape.Point{X: 1}, shape.Point{X: -1})
	y := shape.New(shape.Point{Y: 1}, shape.Point{Y: -1})
	z := shape.New(shape.Point{Z: 1}, shape.Point{Z: -1})
	return &Kernel{
		Name:          "divergence",
		Shape:         x.Union(y).Union(z),
		Buffers:       3,
		Type:          Float64,
		FlopsPerPoint: 9,
	}
}

// Gradient is the 3-D 6-point star without the centre (1 double buffer).
func Gradient() *Kernel {
	return &Kernel{
		Name:          "gradient",
		Shape:         shape.Star3DNoCentre(1),
		Buffers:       1,
		Type:          Float64,
		FlopsPerPoint: 9,
	}
}

// Laplacian is the classic 3-D 7-point laplacian (1 double buffer).
func Laplacian() *Kernel {
	return &Kernel{
		Name:          "laplacian",
		Shape:         shape.Laplacian3D(1),
		Buffers:       1,
		Type:          Float64,
		FlopsPerPoint: 14,
	}
}

// Laplacian6 is the 6th-order 3-D 19-point laplacian (1 double buffer).
func Laplacian6() *Kernel {
	return &Kernel{
		Name:          "laplacian6",
		Shape:         shape.Laplacian3D(3),
		Buffers:       1,
		Type:          Float64,
		FlopsPerPoint: 38,
	}
}

// tableIII lists the constructors of the nine Table III kernels in table
// order; kernelByName indexes the same constructors by kernel name.
var (
	tableIII = []func() *Kernel{
		Blur, Edge, GameOfLife, Wave, Tricubic,
		Divergence, Gradient, Laplacian, Laplacian6,
	}
	kernelByName = func() map[string]func() *Kernel {
		m := make(map[string]func() *Kernel, len(tableIII))
		for _, build := range tableIII {
			m[build().Name] = build
		}
		return m
	}()
)

// BenchmarkKernels returns the nine kernels of Table III in table order.
func BenchmarkKernels() []*Kernel {
	out := make([]*Kernel, len(tableIII))
	for i, build := range tableIII {
		out[i] = build()
	}
	return out
}

// KernelByName builds the named Table III kernel. Each call returns a fresh
// kernel the caller may modify.
func KernelByName(name string) (*Kernel, error) {
	if build, ok := kernelByName[name]; ok {
		return build(), nil
	}
	return nil, fmt.Errorf("stencil: unknown benchmark kernel %q", name)
}

// Benchmarks returns the seventeen test benchmarks of Table III: each kernel
// paired with its evaluation sizes.
func Benchmarks() []Instance {
	return []Instance{
		{Blur(), Size2D(1024, 1024)},
		{Blur(), Size2D(1024, 768)},
		{Edge(), Size2D(512, 512)},
		{Edge(), Size2D(1024, 1024)},
		{GameOfLife(), Size2D(512, 512)},
		{GameOfLife(), Size2D(1024, 1024)},
		{Wave(), Size3D(128, 128, 128)},
		{Wave(), Size3D(256, 256, 256)},
		{Tricubic(), Size3D(128, 128, 128)},
		{Tricubic(), Size3D(256, 256, 256)},
		{Divergence(), Size3D(128, 128, 128)},
		{Gradient(), Size3D(128, 128, 128)},
		{Gradient(), Size3D(256, 256, 256)},
		{Laplacian(), Size3D(128, 128, 128)},
		{Laplacian(), Size3D(256, 256, 256)},
		{Laplacian6(), Size3D(128, 128, 128)},
		{Laplacian6(), Size3D(256, 256, 256)},
	}
}

// TrainingSizes2D returns the 2-D training input sizes of Sec. V-B.
func TrainingSizes2D() []Size {
	return []Size{Size2D(256, 256), Size2D(512, 512), Size2D(1024, 1024), Size2D(2048, 2048)}
}

// TrainingSizes3D returns the 3-D training input sizes of Sec. V-B.
func TrainingSizes3D() []Size {
	return []Size{Size3D(64, 64, 64), Size3D(128, 128, 128), Size3D(256, 256, 256)}
}
