package shape

// This file provides the four training-shape families of Fig. 1 in the paper
// (line, hyperplane, hypercube, laplacian), parameterized by offset, plus the
// specific shapes needed by the benchmark kernels of Table III.

// Axis selects the orientation of a Line shape.
type Axis int

// The three grid axes.
const (
	AxisX Axis = iota
	AxisY
	AxisZ
)

func axisPoint(a Axis, v int) Point {
	switch a {
	case AxisX:
		return Point{v, 0, 0}
	case AxisY:
		return Point{0, v, 0}
	default:
		return Point{0, 0, v}
	}
}

// Line returns the 1-D line shape of Fig. 1a along the given axis: the
// centre plus offsets -r..r on that axis.
func Line(axis Axis, r int) *Shape {
	s := New()
	for v := -r; v <= r; v++ {
		s.Add(axisPoint(axis, v), 1)
	}
	return s
}

// Hyperplane returns the 2-D plane shape of Fig. 1b: all points with offsets
// -r..r in the two axes orthogonal to normal, at the normal coordinate 0.
func Hyperplane(normal Axis, r int) *Shape {
	s := New()
	for a := -r; a <= r; a++ {
		for b := -r; b <= r; b++ {
			switch normal {
			case AxisZ:
				s.Add(Point{a, b, 0}, 1)
			case AxisY:
				s.Add(Point{a, 0, b}, 1)
			default:
				s.Add(Point{0, a, b}, 1)
			}
		}
	}
	return s
}

// Hypercube returns the dense cube shape of Fig. 1c with offsets -r..r in
// all three dimensions ((2r+1)³ points).
func Hypercube(r int) *Shape {
	s := New()
	for z := -r; z <= r; z++ {
		for y := -r; y <= r; y++ {
			for x := -r; x <= r; x++ {
				s.Add(Point{x, y, z}, 1)
			}
		}
	}
	return s
}

// Square returns the planar (z = 0) dense square with offsets -r..r, the 2-D
// analogue of Hypercube (e.g. the 3×3 and 5×5 "hypercube" patterns used by
// the blur, edge and game-of-life benchmarks in Table III).
func Square(r int) *Shape {
	s := New()
	for y := -r; y <= r; y++ {
		for x := -r; x <= r; x++ {
			s.Add(Point{x, y, 0}, 1)
		}
	}
	return s
}

// Laplacian returns the star shape of Fig. 1d: the centre plus offsets
// 1..r along both directions of every axis (6r+1 points in 3-D).
func Laplacian3D(r int) *Shape {
	s := New(Point{0, 0, 0})
	for v := 1; v <= r; v++ {
		s.Add(Point{v, 0, 0}, 1)
		s.Add(Point{-v, 0, 0}, 1)
		s.Add(Point{0, v, 0}, 1)
		s.Add(Point{0, -v, 0}, 1)
		s.Add(Point{0, 0, v}, 1)
		s.Add(Point{0, 0, -v}, 1)
	}
	return s
}

// Laplacian2D returns the planar star: centre plus offsets 1..r along ±x
// and ±y (4r+1 points).
func Laplacian2D(r int) *Shape {
	s := New(Point{0, 0, 0})
	for v := 1; v <= r; v++ {
		s.Add(Point{v, 0, 0}, 1)
		s.Add(Point{-v, 0, 0}, 1)
		s.Add(Point{0, v, 0}, 1)
		s.Add(Point{0, -v, 0}, 1)
	}
	return s
}

// Star3DNoCentre returns the 3-D laplacian star of radius r without the
// centre point (6r points) — the access pattern of the gradient and
// divergence benchmarks, whose kernels do not read the updated cell.
func Star3DNoCentre(r int) *Shape {
	s := Laplacian3D(r)
	s.Remove(Point{0, 0, 0})
	return s
}

// Family identifies one of the four training-shape families of Fig. 1.
type Family int

// The training families, in the order of Fig. 1.
const (
	FamilyLine Family = iota
	FamilyHyperplane
	FamilyHypercube
	FamilyLaplacian
)

func (f Family) String() string {
	switch f {
	case FamilyLine:
		return "line"
	case FamilyHyperplane:
		return "hyperplane"
	case FamilyHypercube:
		return "hypercube"
	case FamilyLaplacian:
		return "laplacian"
	default:
		return "?"
	}
}

// Families lists all four training families.
func Families() []Family {
	return []Family{FamilyLine, FamilyHyperplane, FamilyHypercube, FamilyLaplacian}
}

// Generate builds the training shape for a family at a given offset and
// dimensionality (2 or 3). Degenerate combinations fall back to the closest
// planar analogue (a 2-D "hypercube" is a square, a 2-D hyperplane is a line).
func Generate(f Family, dims, offset int) *Shape {
	if offset < 1 {
		offset = 1
	}
	switch f {
	case FamilyLine:
		if dims == 2 {
			return Line(AxisX, offset)
		}
		// Orient along z so the generated kernel is a genuinely 3-D
		// computation (its reuse pattern crosses planes).
		return Line(AxisZ, offset)
	case FamilyHyperplane:
		if dims == 2 {
			return Line(AxisY, offset)
		}
		// Normal along x: the plane spans y and z.
		return Hyperplane(AxisX, offset)
	case FamilyHypercube:
		if dims == 2 {
			return Square(offset)
		}
		return Hypercube(offset)
	case FamilyLaplacian:
		if dims == 2 {
			return Laplacian2D(offset)
		}
		return Laplacian3D(offset)
	default:
		panic("shape: unknown family")
	}
}
