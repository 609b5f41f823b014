// Package exec is the real stencil execution engine and this repository's
// stand-in for PATUS: it turns a linear stencil kernel plus a tuning vector
// into a specialized code variant and runs it over grids, with the same code
// transformations PATUS exposes — loop blocking (bx, by, bz), innermost-loop
// unrolling (u), chunked multithreaded tile scheduling (c) and temporal
// blocking (fusion depth K) — implemented with goroutine workers instead of
// OpenMP threads.
//
// The engine is generic over the element type: Runner[float32] executes and
// times single-precision stencils in genuine float32 arithmetic and memory
// traffic, Runner[float64] in double precision. Kernel descriptions
// (LinearKernel) stay type-neutral — weights are declared in float64 and
// converted to the execution type when a plan is built — so one kernel
// definition serves both precisions. NewRunner returns the double-precision
// runner; NewRunnerOf selects the type explicitly, and Measurer picks the
// runner matching each stencil's declared DataType.
//
// Specialization happens at compile time. Runner.Compile, the one compile
// path, takes a kernel, a grid geometry and a tuning vector and produces a
// *Program, deciding once how the vector runs. When the fusion depth K
// exceeds 1, the kernel has one buffer and the domain is at least the
// kernel radius wide in-plane, the program is a temporal-blocking wavefront
// that advances K steps per Run (fused.go); otherwise it is the one-step
// tiled program and K is normalized to 1. A one-step program is the
// flattened term plan on a layout — the exact-size tile decomposition and
// its flattened (base, n) row-span plan — that the Runner caches per
// (geometry, bx, by, bz) and shares across every kernel and every (u, c).
// Execution walks rows linearly with no index arithmetic, and compiling a
// new kernel on a known layout costs O(terms). Both kinds of program run
// every kernel through one row body (rows.go), chosen from the CPU alone:
// the AVX2 span kernels of rows_amd64.s on amd64 CPUs with AVX2, the
// portable term-major passes elsewhere (GenericBody reports which). Both
// bodies sum terms in plan order with one rounding per operation, so they
// agree bit for bit with each other and with Reference. The AVX2 kernels
// have no bounds checks; Compile proves every span's accesses inside the
// grid instead, in O(1) per program from the layout's first and last
// points, and rejects grids too large for int32 flat indices. Programs are
// cached inside the Runner in one program cache (keyed by kernel identity,
// geometry and normalized tuning vector), and the Runner owns a persistent
// pool of worker goroutines, so steady-state Run calls are allocation-free
// and spawn nothing. A run gives each participant one contiguous slab of
// the tiles; c is the claim size within a slab, and a participant whose
// slab is empty steals chunks from the others' (pool.go). The caller never
// waits for a worker that has not joined by the time the tiles run out.
// This matters because the Measure evaluation mode calls Run thousands of
// times per search: fixed per-call overhead both pollutes small-grid
// timings (the training signal) and caps autotuning throughput.
//
// Runner.Run is the one-step convenience wrapper (compile-or-lookup with
// K=1, then execute). Call Runner.Close when discarding a Runner before process exit to stop its
// worker pool; the pool is tiny and idle workers cost nothing, so long-lived
// Runners may simply be kept.
//
// The package serves two roles: the "Measure" evaluation mode (wall-clock
// timing of actual Go execution, for users who want real measurements
// instead of the simulator) and the correctness substrate proving that every
// tuning vector computes the same result as the naive reference sweep.
package exec

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/grid"
	"repro/internal/shape"
	"repro/internal/tunespace"
)

// Term is one weighted access of a linear stencil: out += Weight * in[buffer][p + Offset].
// Weights are declared in float64 regardless of the execution type; plans
// convert them once at compile time.
type Term struct {
	Buffer int
	Offset shape.Point
	Weight float64
}

// LinearKernel is an executable stencil: the updated value is the weighted
// sum of the terms. Every Table III benchmark is expressible in this form.
// The description is element-type-neutral; the Runner executing it fixes the
// precision.
type LinearKernel struct {
	Name    string
	Buffers int
	Terms   []Term
}

// Validate checks the kernel references only existing buffers.
func (k *LinearKernel) Validate() error {
	if len(k.Terms) == 0 {
		return fmt.Errorf("exec: kernel %q has no terms", k.Name)
	}
	if k.Buffers < 1 {
		return fmt.Errorf("exec: kernel %q has %d buffers", k.Name, k.Buffers)
	}
	for _, t := range k.Terms {
		if t.Buffer < 0 || t.Buffer >= k.Buffers {
			return fmt.Errorf("exec: kernel %q references buffer %d of %d", k.Name, t.Buffer, k.Buffers)
		}
	}
	return nil
}

// MaxOffset returns the halo width the kernel needs.
func (k *LinearKernel) MaxOffset() int {
	r := 0
	for _, t := range k.Terms {
		if n := t.Offset.ChebyshevNorm(); n > r {
			r = n
		}
	}
	return r
}

// plan holds the flattened per-term data precomputed for one grid geometry,
// with weights converted to the execution type.
type plan[T grid.Float] struct {
	idxOff []int // flat-index displacement per term
	weight []T   // weight per term
	data   [][]T // backing slice per buffer, indexed by term
}

// Runner executes kernels of one element type with a fixed worker count
// (defaults to GOMAXPROCS). It owns a persistent worker pool (started lazily
// on first execution), a cache of compiled Programs and a cache of the
// layouts they share; all are released by Close. Setting Workers has no
// effect once the pool has started. Executions through one Runner are
// serialized — the pool already saturates the machine for a single run.
type Runner[T grid.Float] struct {
	Workers int

	mu            sync.Mutex
	pool          *workerPool[T]
	progs         map[progKey]*Program[T]
	layouts       map[layoutKey]*layout
	cachedScratch int // wavefront scratch elements over progs
	cachedTiles   int // over layouts
	cachedSpans   int // over layouts
	progStats     cacheCounters
	layoutStats   cacheCounters
	poolStats     poolCounters
}

// NewRunnerOf returns a runner of element type T using all available CPUs.
func NewRunnerOf[T grid.Float]() *Runner[T] { return &Runner[T]{Workers: runtime.GOMAXPROCS(0)} }

// NewRunner returns a double-precision runner using all available CPUs (the
// float64 shim of NewRunnerOf).
func NewRunner() *Runner[float64] { return NewRunnerOf[float64]() }

// poolLocked returns the persistent worker pool, starting it on first use.
// Callers must hold r.mu.
func (r *Runner[T]) poolLocked() *workerPool[T] {
	if r.pool == nil {
		w := r.Workers
		if w < 1 {
			w = 1
		}
		r.pool = newWorkerPool[T](w, &r.poolStats)
	}
	return r.pool
}

// Close stops the persistent worker pool and drops the program and layout
// caches (CacheStats keeps counting). The Runner may be reused afterwards:
// the next execution restarts the pool.
func (r *Runner[T]) Close() {
	r.mu.Lock()
	pool := r.pool
	r.pool = nil
	r.progs = nil
	r.layouts = nil
	r.cachedScratch = 0
	r.cachedTiles = 0
	r.cachedSpans = 0
	r.mu.Unlock()
	if pool != nil {
		pool.stop()
	}
}

// checkGeometry validates that every buffer matches the output geometry
// exactly — extent and halo widths, hence strides, since the term plan's flat
// index displacements are shared between the output and every input — and
// carries a sufficient halo for the kernel's maximum offset.
func checkGeometry[T grid.Float](k *LinearKernel, out *grid.Grid[T], ins []*grid.Grid[T]) error {
	if len(ins) != k.Buffers {
		return fmt.Errorf("exec: kernel %q wants %d buffers, got %d", k.Name, k.Buffers, len(ins))
	}
	need := k.MaxOffset()
	for i, g := range ins {
		if g.NX != out.NX || g.NY != out.NY || g.NZ != out.NZ {
			return fmt.Errorf("exec: buffer %d geometry %dx%dx%d mismatches output %dx%dx%d",
				i, g.NX, g.NY, g.NZ, out.NX, out.NY, out.NZ)
		}
		if g.Halo != out.Halo || g.HaloZ != out.HaloZ {
			return fmt.Errorf("exec: buffer %d halo %d/%d mismatches output halo %d/%d (plans share flat indices)",
				i, g.Halo, g.HaloZ, out.Halo, out.HaloZ)
		}
		if g.Halo < need || (g.NZ > 1 && g.HaloZ < need) {
			return fmt.Errorf("exec: buffer %d halo %d/%d insufficient for offset %d",
				i, g.Halo, g.HaloZ, need)
		}
	}
	return nil
}

// Reference computes the kernel with a naive, unblocked, single-threaded
// sweep, accumulating in the runner's element type in term order. It is the
// correctness oracle for Run: one-step programs of the same Runner
// instantiation match it bit for bit (up to the sign of a zero) for every
// kernel, whatever the order of its terms, and a K-step wavefront matches K
// sequential steps.
func (r *Runner[T]) Reference(k *LinearKernel, out *grid.Grid[T], ins []*grid.Grid[T]) error {
	if err := k.Validate(); err != nil {
		return err
	}
	if err := checkGeometry(k, out, ins); err != nil {
		return err
	}
	off := make([]int, len(k.Terms))
	for i, t := range k.Terms {
		off[i] = out.OffsetIndex(t.Offset.X, t.Offset.Y, t.Offset.Z)
	}
	dst := out.Data()
	for z := 0; z < out.NZ; z++ {
		for y := 0; y < out.NY; y++ {
			base := out.Index(0, y, z)
			for x := 0; x < out.NX; x++ {
				var acc T
				i := base + x
				for ti, t := range k.Terms {
					acc += T(t.Weight) * ins[t.Buffer].Data()[i+off[ti]]
				}
				dst[i] = acc
			}
		}
	}
	return nil
}

// tile is one blocked sub-domain.
type tile struct {
	x0, x1, y0, y1, z0, z1 int
}

// Run executes one step of the kernel over the full interior with the given
// tuning vector, whatever its fusion depth: the domain is decomposed into
// bx×by×bz tiles, the tiles into one contiguous slab per participating
// worker, and each worker claims chunks of c consecutive tiles from its own
// slab, then steals chunks from the others'. The unroll factor u selects the
// row body's fuse width.
//
// Run compiles (or looks up) the cached one-step Program for (kernel,
// geometry, vector with K=1) and executes it; in steady state it performs
// no allocations and spawns no goroutines.
func (r *Runner[T]) Run(k *LinearKernel, out *grid.Grid[T], ins []*grid.Grid[T], tv tunespace.Vector) error {
	// Fast path: a cache hit proves (kernel, geometry, vector) were already
	// validated at compile time, so only the per-call grid binding (checked
	// by Program.Run) remains. The key is normalized as Compile normalizes
	// a one-step vector.
	tv.K = 1
	if out.NZ == 1 {
		tv.Bz = 1
	}
	key := progKey{kernel: k, geom: geomOf(out), tv: tv}
	r.mu.Lock()
	pr, ok := r.progs[key]
	if ok {
		r.progStats.hits.Add(1)
	}
	r.mu.Unlock()
	if !ok {
		var err error
		pr, err = r.Compile(k, out, ins, tv)
		if err != nil {
			return err
		}
	}
	return pr.Run(out, ins)
}

// decompose splits the interior into tiles in z-major order with an
// exact-size allocation. Operating on the element-type-free geom keeps it
// (and its fuzz target) independent of the grid instantiation.
func decompose(g geom, tv tunespace.Vector) []tile {
	n := ceilDiv(g.nx, tv.Bx) * ceilDiv(g.ny, tv.By) * ceilDiv(g.nz, tv.Bz)
	tiles := make([]tile, 0, n)
	for z0 := 0; z0 < g.nz; z0 += tv.Bz {
		z1 := min(z0+tv.Bz, g.nz)
		for y0 := 0; y0 < g.ny; y0 += tv.By {
			y1 := min(y0+tv.By, g.ny)
			for x0 := 0; x0 < g.nx; x0 += tv.Bx {
				x1 := min(x0+tv.Bx, g.nx)
				tiles = append(tiles, tile{x0, x1, y0, y1, z0, z1})
			}
		}
	}
	return tiles
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
