// Package grid provides the field substrate stencils operate on: flat-array
// 2-D/3-D grids with halo (ghost-cell) regions sized to a stencil's maximum
// offset, deterministic initialization patterns, and tolerant comparison used
// by the executor's correctness tests.
//
// Grid is generic over its element type: Grid[float32] and Grid[float64]
// store exactly the stencil.DataType the kernel declares, so the executor
// times and validates single-precision stencils in single precision. The
// float64-typed helpers (New, New2D, Acquire, Release) remain as shims for
// the double-precision default; NewOf/AcquireOf are the typed constructors.
package grid

import (
	"fmt"
	"math"
)

// Float constrains a grid's element type to the two stencil data types.
// Deliberately no ~: defined types would defeat the elemBytes type switch
// (mis-sizing WorkspaceBytes and colliding pool classes across element
// types), and the execution engine only ever instantiates the two exact
// types stencil.DataType can declare.
type Float interface {
	float32 | float64
}

// Grid is a dense 3-D field with a halo of width Halo on every side. 2-D
// grids are represented with NZ = 1 (and a halo in x/y only if HaloZ is 0).
// Data is laid out x-fastest: index = ((z * strideY) + y) * strideX + x,
// with coordinates including the halo.
type Grid[T Float] struct {
	NX, NY, NZ int // interior extent
	Halo       int // halo width in x and y
	HaloZ      int // halo width in z (0 for 2-D grids)

	strideX, strideY int
	data             []T
}

// NewOf allocates a grid of element type T with the given interior size and
// halo widths. For 2-D fields pass nz = 1 and haloZ = 0.
func NewOf[T Float](nx, ny, nz, halo, haloZ int) *Grid[T] {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("grid: non-positive extent %dx%dx%d", nx, ny, nz))
	}
	if halo < 0 || haloZ < 0 {
		panic("grid: negative halo")
	}
	g := &Grid[T]{NX: nx, NY: ny, NZ: nz, Halo: halo, HaloZ: haloZ}
	g.strideX = nx + 2*halo
	g.strideY = ny + 2*halo
	g.data = make([]T, g.strideX*g.strideY*(nz+2*haloZ))
	return g
}

// New allocates a float64 grid (the double-precision shim of NewOf).
func New(nx, ny, nz, halo, haloZ int) *Grid[float64] {
	return NewOf[float64](nx, ny, nz, halo, haloZ)
}

// New2D allocates a planar float64 grid with the given halo.
func New2D(nx, ny, halo int) *Grid[float64] { return New(nx, ny, 1, halo, 0) }

// Len returns the total allocated element count including halos.
func (g *Grid[T]) Len() int { return len(g.data) }

// ElemBytes returns the size in bytes of one element of this grid.
func (g *Grid[T]) ElemBytes() int {
	var zero T
	return elemBytes(zero)
}

func elemBytes[T Float](zero T) int {
	if _, ok := any(zero).(float32); ok {
		return 4
	}
	return 8
}

// Index returns the flat index of interior coordinate (x, y, z); the
// coordinate (0,0,0) is the first interior cell. Offsets may reach into the
// halo: x ∈ [-Halo, NX+Halo).
func (g *Grid[T]) Index(x, y, z int) int {
	return ((z+g.HaloZ)*g.strideY+(y+g.Halo))*g.strideX + (x + g.Halo)
}

// At returns the value at interior coordinate (x, y, z).
func (g *Grid[T]) At(x, y, z int) T { return g.data[g.Index(x, y, z)] }

// Set stores v at interior coordinate (x, y, z).
func (g *Grid[T]) Set(x, y, z int, v T) { g.data[g.Index(x, y, z)] = v }

// Data exposes the raw backing slice for kernel inner loops.
func (g *Grid[T]) Data() []T { return g.data }

// OffsetIndex converts a relative stencil offset to a flat-index delta, so
// kernels can precompute neighbour displacements once.
func (g *Grid[T]) OffsetIndex(dx, dy, dz int) int {
	return (dz*g.strideY+dy)*g.strideX + dx
}

// Fill sets every cell (halo included) to v.
func (g *Grid[T]) Fill(v T) {
	for i := range g.data {
		g.data[i] = v
	}
}

// FillPattern initializes every cell (halo included) with a smooth
// deterministic function of its coordinates, so different tunings of the same
// kernel can be checked for bitwise-comparable results.
//
// The sweep walks whole allocated rows by stride bumps — the x extent of the
// fill is exactly strideX, so rows tile the backing array contiguously — and
// hoists the y/z transcendentals out of the row loop. The per-cell value
// (sin(0.37x) + cos(0.21y)) + 0.5·sin(0.11z) is computed in float64 and then
// converted to T, so the float64 instantiation stays bit-identical to the
// original per-point sweep and the float32 one is its correct rounding.
func (g *Grid[T]) FillPattern() {
	base := 0
	for z := -g.HaloZ; z < g.NZ+g.HaloZ; z++ {
		halfSinZ := 0.5 * math.Sin(float64(z)*0.11)
		for y := -g.Halo; y < g.NY+g.Halo; y++ {
			cosY := math.Cos(float64(y) * 0.21)
			row := g.data[base : base+g.strideX]
			x := float64(-g.Halo)
			for i := range row {
				row[i] = T((math.Sin(x*0.37) + cosY) + halfSinZ)
				x++
			}
			base += g.strideX
		}
	}
}

// Clone returns a deep copy.
func (g *Grid[T]) Clone() *Grid[T] {
	c := *g
	c.data = make([]T, len(g.data))
	copy(c.data, g.data)
	return &c
}

// MaxAbsDiff returns the maximum absolute interior difference between two
// grids of identical geometry and element type, as a float64. It panics if
// the geometries differ.
func MaxAbsDiff[T Float](a, b *Grid[T]) float64 {
	if a.NX != b.NX || a.NY != b.NY || a.NZ != b.NZ {
		panic("grid: geometry mismatch")
	}
	var m float64
	for z := 0; z < a.NZ; z++ {
		for y := 0; y < a.NY; y++ {
			for x := 0; x < a.NX; x++ {
				d := math.Abs(float64(a.At(x, y, z)) - float64(b.At(x, y, z)))
				if d > m {
					m = d
				}
			}
		}
	}
	return m
}

// InteriorSum returns the sum of all interior cells (a cheap checksum for
// tests), accumulated in the grid's own element type. Interior rows are
// walked as reslices advanced by stride bumps from a single Index call; the
// accumulation order (x, then y, then z ascending) matches the original
// per-point sweep bit-for-bit.
func (g *Grid[T]) InteriorSum() T {
	var s T
	planeBase := g.Index(0, 0, 0)
	planeStride := g.strideX * g.strideY
	for z := 0; z < g.NZ; z++ {
		base := planeBase
		for y := 0; y < g.NY; y++ {
			for _, v := range g.data[base : base+g.NX] {
				s += v
			}
			base += g.strideX
		}
		planeBase += planeStride
	}
	return s
}
