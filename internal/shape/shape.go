// Package shape models stencil access patterns ("shapes") as sparse sets of
// 3-D offsets relative to the point being updated, following Section III-A of
// Cosenza et al., "Autotuning Stencil Computations with Structural Ordinal
// Regression Learning" (IPDPS 2017).
//
// A two-dimensional stencil is treated as the special case of a 3-D stencil
// whose accesses all lie on the z = 0 plane, so every pattern in the system
// maps into the same feature space.
package shape

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Point is a relative grid offset accessed by a stencil, with the updated
// cell at the origin (0,0,0).
type Point struct {
	X, Y, Z int
}

// ChebyshevNorm returns the L∞ norm of p, i.e. the smallest maximum offset
// that encloses the point.
func (p Point) ChebyshevNorm() int {
	n := abs(p.X)
	if a := abs(p.Y); a > n {
		n = a
	}
	if a := abs(p.Z); a > n {
		n = a
	}
	return n
}

func (p Point) String() string { return fmt.Sprintf("(%d,%d,%d)", p.X, p.Y, p.Z) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Shape is a stencil access pattern: the set of neighbouring points read when
// updating one grid cell. The zero value is an empty shape.
//
// Multiplicity is tracked per point: when a stencil reads several buffers,
// Section III-A defines the overall pattern as the *sum* of the per-buffer
// access patterns, so a point may carry a weight larger than one
// (this matters only for the divergence benchmark).
type Shape struct {
	points map[Point]int
	// sorted memoizes Points(). Feature encoding calls Points() once per
	// training point on long-lived kernels, from concurrent dataset workers;
	// the atomic pointer makes the memo race-free (a lost duplicate build is
	// benign). Mutators clear it.
	sorted atomic.Pointer[[]Point]
}

// New returns a shape containing the given points, each with multiplicity 1.
// Duplicate points accumulate multiplicity.
func New(points ...Point) *Shape {
	s := &Shape{points: make(map[Point]int, len(points))}
	for _, p := range points {
		s.points[p]++
	}
	return s
}

// Add inserts p with the given multiplicity (which must be positive).
func (s *Shape) Add(p Point, multiplicity int) {
	if multiplicity <= 0 {
		panic("shape: non-positive multiplicity")
	}
	if s.points == nil {
		s.points = make(map[Point]int)
	}
	s.points[p] += multiplicity
	s.sorted.Store(nil)
}

// Remove deletes p from the shape entirely (all multiplicity); removing an
// absent point is a no-op.
func (s *Shape) Remove(p Point) {
	delete(s.points, p)
	s.sorted.Store(nil)
}

// Union returns a new shape whose multiplicities are the pointwise sums of
// s and t. This implements the multi-buffer pattern composition of Sec. III-A.
func (s *Shape) Union(t *Shape) *Shape {
	u := &Shape{points: make(map[Point]int, s.Size()+t.Size())}
	for p, m := range s.points {
		u.points[p] += m
	}
	for p, m := range t.points {
		u.points[p] += m
	}
	return u
}

// Size returns the number of distinct points in the shape.
func (s *Shape) Size() int { return len(s.points) }

// TotalAccesses returns the sum of multiplicities — the number of loads the
// stencil performs per updated cell.
func (s *Shape) TotalAccesses() int {
	total := 0
	for _, m := range s.points {
		total += m
	}
	return total
}

// Contains reports whether the shape accesses offset p.
func (s *Shape) Contains(p Point) bool { _, ok := s.points[p]; return ok }

// Multiplicity returns how many times offset p is read (0 if absent).
func (s *Shape) Multiplicity(p Point) int { return s.points[p] }

// Points returns the distinct points in canonical (z, y, x) order. The
// result is memoized until the shape is next mutated; callers must not
// modify the returned slice.
func (s *Shape) Points() []Point {
	if pts := s.sorted.Load(); pts != nil {
		return *pts
	}
	pts := make([]Point, 0, len(s.points))
	for p := range s.points {
		pts = append(pts, p)
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Z != pts[j].Z {
			return pts[i].Z < pts[j].Z
		}
		if pts[i].Y != pts[j].Y {
			return pts[i].Y < pts[j].Y
		}
		return pts[i].X < pts[j].X
	})
	s.sorted.Store(&pts)
	return pts
}

// MaxOffset returns the smallest offset r such that every accessed point lies
// within the (2r+1)³ cube centred at the origin. An empty shape has offset 0.
func (s *Shape) MaxOffset() int {
	r := 0
	for p := range s.points {
		if n := p.ChebyshevNorm(); n > r {
			r = n
		}
	}
	return r
}

// Is2D reports whether every access lies on the z = 0 plane.
func (s *Shape) Is2D() bool {
	for p := range s.points {
		if p.Z != 0 {
			return false
		}
	}
	return true
}

// Dims returns 2 for planar shapes and 3 otherwise.
func (s *Shape) Dims() int {
	if s.Is2D() {
		return 2
	}
	return 3
}

// Equal reports whether two shapes access exactly the same points with the
// same multiplicities.
func (s *Shape) Equal(t *Shape) bool {
	if s.Size() != t.Size() {
		return false
	}
	for p, m := range s.points {
		if t.points[p] != m {
			return false
		}
	}
	return true
}

// String renders the z = 0 plane of the shape as a compact matrix, useful in
// tests and debug output.
func (s *Shape) String() string {
	off := s.MaxOffset()
	var b strings.Builder
	for y := -off; y <= off; y++ {
		for x := -off; x <= off; x++ {
			if x > -off {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", s.points[Point{x, y, 0}])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
