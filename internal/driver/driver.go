// Package driver runs tuned stencils over many time steps — the deployment
// pattern of every motivating application in the paper (PDE integration,
// iterative smoothing, image pipelines). It owns the ring of time-level
// buffers, refreshes halos between steps according to a boundary condition,
// and applies one tuned code variant per step.
package driver

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/grid"
	"repro/internal/tunespace"
)

// Boundary selects how halos are refilled before every step.
type Boundary int

const (
	// Dirichlet keeps halo values fixed at whatever the initial condition
	// set (constant boundary).
	Dirichlet Boundary = iota
	// Periodic wraps the domain torus-style.
	Periodic
	// Neumann copies the nearest interior cell outward (zero-gradient).
	Neumann
)

func (b Boundary) String() string {
	switch b {
	case Dirichlet:
		return "dirichlet"
	case Periodic:
		return "periodic"
	case Neumann:
		return "neumann"
	default:
		return "?"
	}
}

// Simulation is a time-stepping loop around one stencil kernel, generic
// over the element type so single-precision applications integrate in
// genuine float32. The kernel's Buffers input grids are interpreted as
// consecutive time levels: buffer 0 is u(t), buffer 1 is u(t-1), and so on.
// Each step writes u(t+1) and rotates the ring.
type Simulation[T grid.Float] struct {
	Kernel   *exec.LinearKernel
	Tuning   tunespace.Vector
	Boundary Boundary

	runner *exec.Runner[T]
	// ring[0] is the newest level u(t); ring[len-1] is the write target.
	ring []*grid.Grid[T]
	step int
}

// New builds a double-precision simulation over an nx×ny×nz domain (nz = 1
// for 2-D); it is the float64 shim of NewOf. The tuning vector must be valid
// for the domain's dimensionality.
func New(k *exec.LinearKernel, nx, ny, nz int, tv tunespace.Vector, b Boundary) (*Simulation[float64], error) {
	return NewOf[float64](k, nx, ny, nz, tv, b)
}

// NewOf builds a simulation whose time levels, kernel execution and halo
// refreshes all use element type T.
func NewOf[T grid.Float](k *exec.LinearKernel, nx, ny, nz int, tv tunespace.Vector, b Boundary) (*Simulation[T], error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	dims := 3
	if nz == 1 {
		dims = 2
		tv.Bz = 1
	}
	if err := tv.Validate(dims); err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	halo := k.MaxOffset()
	haloZ := halo
	if nz == 1 {
		haloZ = 0
	}
	s := &Simulation[T]{
		Kernel:   k,
		Tuning:   tv,
		Boundary: b,
		runner:   exec.NewRunnerOf[T](),
	}
	// k.Buffers time levels plus one write target. The ring comes from the
	// grid pool (Acquire returns zeroed grids, matching New).
	for i := 0; i <= k.Buffers; i++ {
		s.ring = append(s.ring, grid.AcquireOf[T](nx, ny, nz, halo, haloZ))
	}
	return s, nil
}

// Level returns the grid holding time level t-i (0 = newest). The returned
// grid may be written to set initial conditions.
func (s *Simulation[T]) Level(i int) *grid.Grid[T] {
	if i < 0 || i >= len(s.ring)-1 {
		panic(fmt.Sprintf("driver: level %d of %d", i, len(s.ring)-1))
	}
	return s.ring[i]
}

// advance runs the program Runner.Compile returns for tv once: it refreshes
// halos on every input level, applies the program and rotates the ring. It
// returns the steps the program advanced.
func (s *Simulation[T]) advance(tv tunespace.Vector) (int, error) {
	inputs := s.ring[:s.Kernel.Buffers]
	out := s.ring[len(s.ring)-1]
	pr, err := s.runner.Compile(s.Kernel, out, inputs, tv)
	if err != nil {
		return 0, err
	}
	for _, g := range inputs {
		s.refreshHalo(g)
	}
	if err := pr.Run(out, inputs); err != nil {
		return 0, err
	}
	// Rotate: the write target becomes the newest level.
	for i := len(s.ring) - 1; i > 0; i-- {
		s.ring[i], s.ring[i-1] = s.ring[i-1], s.ring[i]
	}
	s.step += pr.Steps()
	return pr.Steps(), nil
}

// Close stops the simulation's worker pool and drops its compiled-program
// cache. The simulation may still be stepped afterwards (the pool restarts
// lazily); Close exists so applications that build many short-lived
// simulations do not accumulate idle goroutines.
func (s *Simulation[T]) Close() { s.runner.Close() }

// Run advances n steps. Each run of the compiled program advances its
// Steps(): Runner.Compile fuses the tuning vector's depth K into one
// wavefront sweep, bit-identical to K sequential steps, when the kernel and
// domain allow it, and otherwise runs one step, so K is advisory rather than
// load-bearing. The wavefront refills halos by the periodic rule, so a
// non-periodic boundary runs with K=1, and so does a remainder shorter than
// K.
func (s *Simulation[T]) Run(n int) error {
	tv := s.Tuning
	if s.Boundary != Periodic {
		tv.K = 1
	}
	for n > 0 {
		if n < tv.EffFuse() {
			tv.K = 1
		}
		steps, err := s.advance(tv)
		if err != nil {
			return fmt.Errorf("driver: step %d: %w", s.step, err)
		}
		n -= steps
	}
	return nil
}

// refreshHalo fills the halo cells of g according to the boundary condition.
func (s *Simulation[T]) refreshHalo(g *grid.Grid[T]) {
	if s.Boundary == Dirichlet {
		return // halo untouched: keeps initial values
	}
	halo, haloZ := g.Halo, g.HaloZ
	wrap := func(v, n int) int { return ((v % n) + n) % n }
	clampI := func(v, n int) int {
		if v < 0 {
			return 0
		}
		if v >= n {
			return n - 1
		}
		return v
	}
	src := func(x, y, z int) (int, int, int) {
		if s.Boundary == Periodic {
			return wrap(x, g.NX), wrap(y, g.NY), wrap(z, g.NZ)
		}
		return clampI(x, g.NX), clampI(y, g.NY), clampI(z, g.NZ)
	}
	for z := -haloZ; z < g.NZ+haloZ; z++ {
		for y := -halo; y < g.NY+halo; y++ {
			for x := -halo; x < g.NX+halo; x++ {
				if x >= 0 && x < g.NX && y >= 0 && y < g.NY && z >= 0 && z < g.NZ {
					continue // interior
				}
				sx, sy, sz := src(x, y, z)
				g.Set(x, y, z, g.At(sx, sy, sz))
			}
		}
	}
}
