package shape

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointChebyshevNorm(t *testing.T) {
	cases := []struct {
		p    Point
		want int
	}{
		{Point{0, 0, 0}, 0},
		{Point{1, 0, 0}, 1},
		{Point{-3, 2, 1}, 3},
		{Point{0, -5, 4}, 5},
		{Point{2, 2, -2}, 2},
	}
	for _, c := range cases {
		if got := c.p.ChebyshevNorm(); got != c.want {
			t.Errorf("ChebyshevNorm(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPointAddNeg(t *testing.T) {
	p := Point{1, -2, 3}
	q := Point{4, 5, -6}
	if got := p.Add(q); got != (Point{5, 3, -3}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Neg(); got != (Point{-1, 2, -3}) {
		t.Errorf("Neg = %v", got)
	}
	if got := p.Add(p.Neg()); got != (Point{0, 0, 0}) {
		t.Errorf("p + (-p) = %v, want origin", got)
	}
}

func TestNewAccumulatesMultiplicity(t *testing.T) {
	s := New(Point{1, 0, 0}, Point{1, 0, 0}, Point{0, 1, 0})
	if s.Size() != 2 {
		t.Fatalf("Size = %d, want 2", s.Size())
	}
	if s.TotalAccesses() != 3 {
		t.Fatalf("TotalAccesses = %d, want 3", s.TotalAccesses())
	}
	if m := s.Multiplicity(Point{1, 0, 0}); m != 2 {
		t.Fatalf("Multiplicity = %d, want 2", m)
	}
}

func TestAddPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for multiplicity 0")
		}
	}()
	New().Add(Point{}, 0)
}

func TestUnionSumsMultiplicities(t *testing.T) {
	a := Line(AxisX, 1)
	b := Line(AxisY, 1)
	u := a.Union(b)
	// Centre is in both lines: multiplicity 2.
	if m := u.Multiplicity(Point{0, 0, 0}); m != 2 {
		t.Errorf("centre multiplicity = %d, want 2", m)
	}
	if u.Size() != 5 { // cross of 5 distinct points
		t.Errorf("Size = %d, want 5", u.Size())
	}
	if u.TotalAccesses() != 6 {
		t.Errorf("TotalAccesses = %d, want 6", u.TotalAccesses())
	}
}

func TestLaplacian2DMatchesPaperExample(t *testing.T) {
	// The paper's five-point 2-D laplacian: (0,-1),(-1,0),(0,0),(1,0),(0,1).
	s := Laplacian2D(1)
	want := []Point{{0, -1, 0}, {-1, 0, 0}, {0, 0, 0}, {1, 0, 0}, {0, 1, 0}}
	if s.Size() != len(want) {
		t.Fatalf("Size = %d, want %d", s.Size(), len(want))
	}
	for _, p := range want {
		if !s.Contains(p) {
			t.Errorf("missing point %v", p)
		}
	}
	if !s.Is2D() {
		t.Error("Laplacian2D should be planar")
	}
}

func TestShapeSizes(t *testing.T) {
	cases := []struct {
		name string
		s    *Shape
		want int
	}{
		{"line r=1", Line(AxisX, 1), 3},
		{"line r=2", Line(AxisZ, 2), 5},
		{"hyperplane r=1", Hyperplane(AxisZ, 1), 9},
		{"hyperplane r=2", Hyperplane(AxisZ, 2), 25},
		{"hypercube r=1", Hypercube(1), 27},
		{"hypercube r=2", Hypercube(2), 125},
		{"square r=1", Square(1), 9},
		{"square r=2", Square(2), 25},
		{"laplacian3d r=1", Laplacian3D(1), 7},
		{"laplacian3d r=2", Laplacian3D(2), 13},
		{"laplacian3d r=3", Laplacian3D(3), 19}, // 6th-order laplacian of Table III
		{"laplacian2d r=1", Laplacian2D(1), 5},
		{"star-no-centre r=1", Star3DNoCentre(1), 6},
		{"star-no-centre r=2", Star3DNoCentre(2), 12},
	}
	for _, c := range cases {
		if got := c.s.Size(); got != c.want {
			t.Errorf("%s: Size = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestWaveShapeOfTable3(t *testing.T) {
	// Wave in Table III: "13 laplacian + 1" — a radius-2 3-D laplacian
	// (13 points) is the classic 4th-order wave stencil.
	s := Laplacian3D(2)
	if s.Size() != 13 {
		t.Fatalf("wave laplacian size = %d, want 13", s.Size())
	}
	if s.MaxOffset() != 2 {
		t.Fatalf("MaxOffset = %d, want 2", s.MaxOffset())
	}
}

func TestMaxOffset(t *testing.T) {
	if got := New().MaxOffset(); got != 0 {
		t.Errorf("empty MaxOffset = %d", got)
	}
	if got := Hypercube(3).MaxOffset(); got != 3 {
		t.Errorf("hypercube(3) MaxOffset = %d", got)
	}
	if got := New(Point{0, 0, -4}).MaxOffset(); got != 4 {
		t.Errorf("MaxOffset = %d, want 4", got)
	}
}

func TestIs2DAndDims(t *testing.T) {
	if !Square(2).Is2D() || Square(2).Dims() != 2 {
		t.Error("Square should be 2-D")
	}
	if Hypercube(1).Is2D() || Hypercube(1).Dims() != 3 {
		t.Error("Hypercube should be 3-D")
	}
	if !Line(AxisX, 3).Is2D() {
		t.Error("x line should be planar")
	}
	if Line(AxisZ, 1).Is2D() {
		t.Error("z line should not be planar")
	}
}

func TestEqualAndClone(t *testing.T) {
	a := Hypercube(1)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Add(Point{5, 5, 5}, 1)
	if a.Equal(b) {
		t.Fatal("mutating clone affected original equality")
	}
	if a.Contains(Point{5, 5, 5}) {
		t.Fatal("clone shares storage with original")
	}
	// Same points, different multiplicities: not equal.
	c := New(Point{1, 0, 0})
	d := New(Point{1, 0, 0}, Point{1, 0, 0})
	if c.Equal(d) {
		t.Fatal("different multiplicities reported equal")
	}
}

func TestPointsCanonicalOrder(t *testing.T) {
	s := Hypercube(1)
	pts := s.Points()
	if len(pts) != 27 {
		t.Fatalf("len = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if a.Z > b.Z || (a.Z == b.Z && a.Y > b.Y) || (a.Z == b.Z && a.Y == b.Y && a.X >= b.X) {
			t.Fatalf("points out of order at %d: %v then %v", i, a, b)
		}
	}
}

func TestGenerateFamilies(t *testing.T) {
	for _, f := range Families() {
		for _, dims := range []int{2, 3} {
			for off := 1; off <= 3; off++ {
				s := Generate(f, dims, off)
				if s.Size() == 0 {
					t.Errorf("%v dims=%d off=%d: empty shape", f, dims, off)
				}
				if s.MaxOffset() > off {
					t.Errorf("%v dims=%d off=%d: MaxOffset %d exceeds requested", f, dims, off, s.MaxOffset())
				}
				if dims == 2 && !s.Is2D() {
					t.Errorf("%v dims=2 off=%d: not planar", f, off)
				}
				if dims == 3 && s.Is2D() {
					t.Errorf("%v dims=3 off=%d: planar shape cannot drive a 3-D computation", f, off)
				}
			}
		}
	}
}

func TestGenerateClampsOffset(t *testing.T) {
	s := Generate(FamilyLine, 3, 0)
	if s.Size() != 3 {
		t.Errorf("offset clamp failed: size=%d", s.Size())
	}
}

func TestAxisString(t *testing.T) {
	if AxisX.String() != "x" || AxisY.String() != "y" || AxisZ.String() != "z" {
		t.Error("axis names wrong")
	}
	if Axis(9).String() != "?" {
		t.Error("unknown axis should be ?")
	}
}

func TestFamilyString(t *testing.T) {
	names := map[Family]string{
		FamilyLine: "line", FamilyHyperplane: "hyperplane",
		FamilyHypercube: "hypercube", FamilyLaplacian: "laplacian",
	}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%d.String() = %q, want %q", f, f.String(), want)
		}
	}
	if Family(42).String() != "?" {
		t.Error("unknown family should be ?")
	}
}

func TestStringRendersPlane(t *testing.T) {
	got := Laplacian2D(1).String()
	want := "0 1 0\n1 1 1\n0 1 0\n"
	if got != want {
		t.Errorf("String() =\n%q\nwant\n%q", got, want)
	}
}

// randomShape builds a random shape for property tests.
func randomShape(r *rand.Rand) *Shape {
	s := New()
	n := 1 + r.Intn(20)
	for i := 0; i < n; i++ {
		p := Point{r.Intn(7) - 3, r.Intn(7) - 3, r.Intn(7) - 3}
		s.Add(p, 1+r.Intn(3))
	}
	return s
}

func TestPropertyUnionCommutative(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomShape(rand.New(rand.NewSource(seedA)))
		b := randomShape(rand.New(rand.NewSource(seedB)))
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyUnionTotalAccesses(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomShape(rand.New(rand.NewSource(seedA)))
		b := randomShape(rand.New(rand.NewSource(seedB)))
		return a.Union(b).TotalAccesses() == a.TotalAccesses()+b.TotalAccesses()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		s := randomShape(rand.New(rand.NewSource(seed)))
		return s.Equal(s.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
