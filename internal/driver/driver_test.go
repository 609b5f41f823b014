package driver

import (
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/shape"
	"repro/internal/tunespace"
)

// averaging3 is a 1-buffer 3-point x-axis averaging kernel with weights
// summing to one: under periodic boundaries the interior sum is conserved.
func averaging3() *exec.LinearKernel {
	return &exec.LinearKernel{Name: "avg3", Buffers: 1, Terms: []exec.Term{
		{Offset: shape.Point{X: -1}, Weight: 0.25},
		{Offset: shape.Point{}, Weight: 0.5},
		{Offset: shape.Point{X: 1}, Weight: 0.25},
	}}
}

func tv() tunespace.Vector { return tunespace.Vector{Bx: 8, By: 8, Bz: 4, U: 2, C: 2} }

func TestNewValidation(t *testing.T) {
	if _, err := New(averaging3(), 16, 16, 16, tunespace.Vector{Bx: 0}, Periodic); err == nil {
		t.Error("invalid tuning accepted")
	}
	if _, err := New(&exec.LinearKernel{Name: "e", Buffers: 1}, 8, 8, 8, tv(), Periodic); err == nil {
		t.Error("empty kernel accepted")
	}
	s, err := New(averaging3(), 16, 16, 1, tunespace.Vector{Bx: 8, By: 8, Bz: 64, U: 0, C: 1}, Periodic)
	if err != nil {
		t.Fatalf("2-D grid should force bz=1: %v", err)
	}
	if s.Tuning.Bz != 1 {
		t.Errorf("bz = %d", s.Tuning.Bz)
	}
}

func TestPeriodicConservation(t *testing.T) {
	s, err := New(averaging3(), 32, 8, 8, tv(), Periodic)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Level(0)
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 32; x++ {
				g.Set(x, y, z, math.Sin(float64(x))+2)
			}
		}
	}
	want := g.InteriorSum()
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	got := s.Level(0).InteriorSum()
	if math.Abs(got-want) > 1e-8*math.Abs(want) {
		t.Errorf("periodic averaging lost mass: %v -> %v", want, got)
	}
	if s.Steps() != 20 {
		t.Errorf("steps = %d", s.Steps())
	}
}

func TestPeriodicSmoothingConverges(t *testing.T) {
	// Repeated averaging under periodic boundaries converges to the mean.
	s, err := New(averaging3(), 16, 4, 4, tv(), Periodic)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Level(0)
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 16; x++ {
				v := 0.0
				if x == 0 {
					v = 16
				}
				g.Set(x, y, z, v)
			}
		}
	}
	if err := s.Run(400); err != nil {
		t.Fatal(err)
	}
	// Mean is 1; all cells should be near it.
	cur := s.Level(0)
	for x := 0; x < 16; x++ {
		if d := math.Abs(cur.At(x, 2, 2) - 1); d > 0.01 {
			t.Fatalf("cell %d = %v, want ~1", x, cur.At(x, 2, 2))
		}
	}
}

func TestNeumannKeepsConstantFieldConstant(t *testing.T) {
	s, err := New(averaging3(), 12, 6, 6, tv(), Neumann)
	if err != nil {
		t.Fatal(err)
	}
	s.Level(0).Fill(0) // also fills halo, but halo is refreshed anyway
	for z := 0; z < 6; z++ {
		for y := 0; y < 6; y++ {
			for x := 0; x < 12; x++ {
				s.Level(0).Set(x, y, z, 3.5)
			}
		}
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 12; x++ {
		if got := s.Level(0).At(x, 3, 3); math.Abs(got-3.5) > 1e-12 {
			t.Fatalf("constant field drifted at %d: %v", x, got)
		}
	}
}

func TestDirichletHaloUntouched(t *testing.T) {
	s, err := New(averaging3(), 8, 4, 4, tv(), Dirichlet)
	if err != nil {
		t.Fatal(err)
	}
	// Zero interior, halo boundary value 1 on the -x face only.
	g := s.Level(0)
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			g.Set(-1, y, z, 1)
		}
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	// The cell adjacent to the hot boundary picks up 0.25 of it... but
	// note the ring rotation: the new level was a fresh grid whose halo is
	// zero. Dirichlet semantics require the user to maintain halos on all
	// levels; here we simply verify the first step saw the hot halo.
	if got := s.Level(0).At(0, 1, 1); got != 0.25 {
		t.Errorf("boundary influence = %v, want 0.25", got)
	}
}

func TestTwoBufferLeapfrogRing(t *testing.T) {
	// A two-buffer kernel consumes u(t) and u(t-1): u(t+1) = 2u(t)-u(t-1)
	// reproduces linear growth exactly.
	k := &exec.LinearKernel{Name: "extrapolate", Buffers: 2, Terms: []exec.Term{
		{Buffer: 0, Offset: shape.Point{}, Weight: 2},
		{Buffer: 1, Offset: shape.Point{}, Weight: -1},
	}}
	s, err := New(k, 8, 8, 8, tv(), Periodic)
	if err != nil {
		t.Fatal(err)
	}
	// u(t)=2, u(t-1)=1 everywhere -> u(t+n) = 2+n.
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				s.Level(0).Set(x, y, z, 2)
				s.Level(1).Set(x, y, z, 1)
			}
		}
	}
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if got := s.Level(0).At(4, 4, 4); got != 7 {
		t.Errorf("u after 5 steps = %v, want 7", got)
	}
	if got := s.Level(1).At(4, 4, 4); got != 6 {
		t.Errorf("u(t-1) after 5 steps = %v, want 6", got)
	}
}

func TestLevelPanicsOutOfRange(t *testing.T) {
	s, err := New(averaging3(), 8, 8, 8, tv(), Periodic)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Level(1) // averaging3 has 1 buffer: only level 0 is readable
}

func TestBoundaryString(t *testing.T) {
	if Dirichlet.String() != "dirichlet" || Periodic.String() != "periodic" ||
		Neumann.String() != "neumann" || Boundary(9).String() != "?" {
		t.Error("boundary names wrong")
	}
}

func TestPeriodicWrapsCorrectly(t *testing.T) {
	// A right-shift kernel under periodic boundaries rotates the field.
	k := &exec.LinearKernel{Name: "shift", Buffers: 1, Terms: []exec.Term{
		{Offset: shape.Point{X: -1}, Weight: 1},
	}}
	s, err := New(k, 4, 2, 2, tunespace.Vector{Bx: 4, By: 2, Bz: 2, U: 0, C: 1}, Periodic)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 4; x++ {
		for y := 0; y < 2; y++ {
			for z := 0; z < 2; z++ {
				s.Level(0).Set(x, y, z, float64(x))
			}
		}
	}
	if err := s.Run(4); err != nil { // full rotation
		t.Fatal(err)
	}
	for x := 0; x < 4; x++ {
		if got := s.Level(0).At(x, 0, 0); got != float64(x) {
			t.Fatalf("after full rotation cell %d = %v", x, got)
		}
	}
}

func TestSimulationCloseAndResume(t *testing.T) {
	// Close stops the worker pool; stepping afterwards restarts it
	// transparently, and ring rotation keeps hitting the same cached
	// execution program throughout.
	s, err := New(averaging3(), 16, 16, 16, tv(), Periodic)
	if err != nil {
		t.Fatal(err)
	}
	s.Level(0).FillPattern()
	if err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	sum := s.Level(0).InteriorSum()
	s.Close()
	s.Close() // idempotent
	if err := s.Run(2); err != nil {
		t.Fatalf("step after close: %v", err)
	}
	if math.Abs(s.Level(0).InteriorSum()-sum) > 1e-9 {
		t.Error("periodic averaging stopped conserving the interior sum after Close")
	}
	if got := s.Steps(); got != 5 {
		t.Errorf("steps = %d, want 5", got)
	}
	s.Close()
}

// star7 is a canonical 3-D 7-point smoothing kernel (weights sum to one).
func star7() *exec.LinearKernel {
	return &exec.LinearKernel{Name: "star7", Buffers: 1, Terms: []exec.Term{
		{Offset: shape.Point{}, Weight: 0.4},
		{Offset: shape.Point{X: 1}, Weight: 0.1},
		{Offset: shape.Point{X: -1}, Weight: 0.1},
		{Offset: shape.Point{Y: 1}, Weight: 0.1},
		{Offset: shape.Point{Y: -1}, Weight: 0.1},
		{Offset: shape.Point{Z: 1}, Weight: 0.1},
		{Offset: shape.Point{Z: -1}, Weight: 0.1},
	}}
}

// TestFusedRunMatchesSequentialSteps pins that Run with a fusion depth K > 1
// under periodic boundaries is bit-identical to the same number of
// sequential Steps, including a non-multiple-of-K remainder, and that the
// step counter stays consistent.
func TestFusedRunMatchesSequentialSteps(t *testing.T) {
	for _, steps := range []int{3, 7, 8} {
		seq, err := New(star7(), 12, 10, 8, tunespace.Vector{Bx: 8, By: 8, Bz: 4, U: 2, C: 1, K: 1}, Periodic)
		if err != nil {
			t.Fatal(err)
		}
		defer seq.Close()
		fused, err := New(star7(), 12, 10, 8, tunespace.Vector{Bx: 8, By: 8, Bz: 4, U: 2, C: 1, K: 3}, Periodic)
		if err != nil {
			t.Fatal(err)
		}
		defer fused.Close()
		seq.Level(0).FillPattern()
		fused.Level(0).FillPattern()
		if err := seq.Run(steps); err != nil {
			t.Fatal(err)
		}
		if err := fused.Run(steps); err != nil {
			t.Fatal(err)
		}
		if seq.Steps() != steps || fused.Steps() != steps {
			t.Fatalf("step counters %d/%d, want %d", seq.Steps(), fused.Steps(), steps)
		}
		a, b := seq.Level(0), fused.Level(0)
		for z := 0; z < 8; z++ {
			for y := 0; y < 10; y++ {
				for x := 0; x < 12; x++ {
					va, vb := a.At(x, y, z), b.At(x, y, z)
					if math.Float64bits(va) != math.Float64bits(vb) {
						t.Fatalf("steps=%d: (%d,%d,%d) fused %v != sequential %v", steps, x, y, z, vb, va)
					}
				}
			}
		}
	}
}

// TestFusedRunFallsBackOnUnfusable pins that K > 1 with a non-periodic
// boundary still runs (sequentially) and advances the step counter.
func TestFusedRunFallsBackOnUnfusable(t *testing.T) {
	s, err := New(star7(), 8, 8, 8, tunespace.Vector{Bx: 8, By: 8, Bz: 4, U: 0, C: 1, K: 4}, Neumann)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Level(0).FillPattern()
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if s.Steps() != 5 {
		t.Fatalf("steps = %d, want 5", s.Steps())
	}
}
