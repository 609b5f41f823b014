package exec

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/tunespace"
)

// Temporal blocking: fused multi-timestep execution. A wavefront Program
// advances the tuning vector's fusion depth K ≥ 2 timesteps in a single
// streaming sweep, so each grid plane loaded from DRAM is reused K times
// while it is still cache-resident. On DRAM-bound stencils this trades a
// little redundant recomputation near the periodic seam for a K-fold cut in
// main-memory round-trips per step.
//
// The schedule is a skewed wavefront along the outermost axis (z for 3-D
// grids, y for 2-D). Level s ∈ [1, K] holds the state after s fused steps;
// levels 1..K-1 live in small ring buffers of full planes, level K writes
// the output grid directly. With stream radius rs (the kernel's maximum
// offset along the stream axis), level s is skewed 2·rs+1 planes behind
// level s-1: at iteration i, level s computes its sequence-index
// j = i − (s−1)·(2·rs+1) plane. The extra +1 over the minimal dependency
// distance makes every level's plane of one iteration depend only on planes
// completed in *previous* iterations, so all K plane computations of an
// iteration run concurrently on the worker pool — one dispatch per
// iteration instead of one per level.
//
// Levels s < K compute 2·rs·(K−s) planes beyond the domain on each run
// (sequence length n + 2·rs·(K−s)); those extension planes duplicate the
// wrapped interior planes exactly (same inputs, same operation order), which
// is what makes the periodic seam bit-identical to sequential stepping
// rather than merely close.
//
// Bit-identity. Every intermediate value is materialized from the same
// inputs, with the same per-point accumulation order, as the corresponding
// sequential step: every row runs the single-step generic body (runRow) with
// per-plane rebound term data and in-plane offsets. Periodic halos on
// intermediate planes are refilled with the same wrap rule the driver
// applies between sequential steps.
// TestFusedMatchesSequential pins this across kernels, dimensionalities,
// depths and element types.
//
// Runner.Compile builds a wavefront only for single-buffer kernels on
// domains at least the kernel radius wide in-plane (the periodic halo fill
// assumes a single wrap); every other vector compiles to the one-step tiled
// program, so callers never choose between the engines.

// fusedTask is one plane computation of the current wavefront iteration:
// destination plane, the 2·rs+1 source planes of the level below (indexed
// dz+rs), and the level's term plan.
type fusedTask[T grid.Float] struct {
	dst  []T
	src  [][]T
	plan *plan[T]
}

// wavefront is the part of a Program that runs K ≥ 2 fused steps: the
// plane geometry along the stream axis, the per-level plans and the
// plane-ring scratch of levels 1..K-1.
type wavefront[T grid.Float] struct {
	threeD bool // stream along z (else y)
	radius int  // in-plane halo depth the kernel reads
	rs     int  // stream-axis radius
	skew   int  // per-level iteration skew, 2*rs+1
	n      int  // planes along the stream axis
	rows   int  // interior rows per plane (ny for 3-D, 1 for 2-D)
	nx     int  // interior row length
	sx     int  // row stride
	rowB0  int  // in-plane flat index of the first interior point
	pLen   int  // plane length (= plane stride; planes are contiguous)
	pOff   int  // allocated halo planes before plane 0 (haloZ or halo)

	count   []int   // per-level sequence length: n + 2*rs*(K-s)
	ring    int     // scratch ring size per level, 2*rs+2
	scratch [][][]T // [level-1][slot] plane, levels 1..K-1

	termDz []int     // stream-axis offset per term
	plans  []plan[T] // per-level plans (shared idxOff/weight, own data)

	tasks  [tunespace.MaxFuse]fusedTask[T]
	active int // tasks in flight this iteration, read by pool workers
	chunk  int // rows per work claim
}

// scratchElems returns the plane-ring elements the program holds, zero for
// a one-step program.
func (pr *Program[T]) scratchElems() int {
	if pr.wave == nil {
		return 0
	}
	return len(pr.wave.scratch) * pr.wave.ring * pr.wave.pLen
}

// compileWavefront builds the wavefront program of depth tv.K ≥ 2 for a
// single-buffer kernel of the given radius. It fails when a row would read
// outside its source plane.
func compileWavefront[T grid.Float](r *Runner[T], k *LinearKernel, out *grid.Grid[T], tv tunespace.Vector, radius int) (*Program[T], error) {
	g := geomOf(out)
	w := &wavefront[T]{
		threeD: g.nz > 1,
		radius: radius,
		nx:     g.nx,
		sx:     g.strideX(),
	}
	if w.threeD {
		w.n = g.nz
		w.rows = g.ny
		w.pLen = g.strideX() * g.strideY()
		w.pOff = g.haloZ
		w.rowB0 = g.halo*w.sx + g.halo
	} else {
		w.n = g.ny
		w.rows = 1
		w.pLen = g.strideX()
		w.pOff = g.halo
		w.rowB0 = g.halo
	}

	// Split each term's flat offset into its stream-axis plane displacement
	// and the in-plane remainder; rs is the stream radius.
	w.termDz = make([]int, len(k.Terms))
	inOff := make([]int, len(k.Terms))
	weights := make([]T, len(k.Terms))
	for i, t := range k.Terms {
		dz := t.Offset.Z
		if !w.threeD {
			dz = t.Offset.Y
		}
		w.termDz[i] = dz
		inOff[i] = out.OffsetIndex(t.Offset.X, t.Offset.Y, t.Offset.Z) - dz*w.pLen
		weights[i] = T(t.Weight)
		if dz < 0 {
			dz = -dz
		}
		if dz > w.rs {
			w.rs = dz
		}
	}
	w.skew = 2*w.rs + 1
	w.ring = 2*w.rs + 2

	// Every row reads its source planes at in-plane offsets: prove the
	// accesses from the first row's first point to the last row's last
	// point stay inside a plane, as checkReads does for single-step spans.
	lo, hi := accessRange(inOff)
	if err := checkSpan(w.rowB0, w.rowB0+(w.rows-1)*w.sx+w.nx-1, lo, hi, w.pLen); err != nil {
		return nil, fmt.Errorf("exec: kernel %q: %w", k.Name, err)
	}

	// Per-level plans: idxOff and weights are shared read-only slices; each
	// level owns its data bindings because all K levels of one iteration
	// execute concurrently.
	w.plans = make([]plan[T], tv.K)
	for s := range w.plans {
		w.plans[s] = plan[T]{idxOff: inOff, weight: weights, data: make([][]T, len(k.Terms))}
	}

	w.count = make([]int, tv.K)
	for s := 1; s <= tv.K; s++ {
		w.count[s-1] = w.n + 2*w.rs*(tv.K-s)
	}
	w.scratch = make([][][]T, tv.K-1)
	for s := range w.scratch {
		w.scratch[s] = make([][]T, w.ring)
		for i := range w.scratch[s] {
			w.scratch[s][i] = make([]T, w.pLen)
		}
	}
	for i := range w.tasks {
		w.tasks[i].src = make([][]T, w.skew)
	}
	return &Program[T]{
		r:      r,
		kernel: k,
		geom:   g,
		tv:     tv,
		fuse:   fuseWidth(tv.U),
		avx2:   useAVX2,
		wave:   w,
	}, nil
}

func wrapInt(v, n int) int { return ((v % n) + n) % n }

// planeBase returns the flat index of the start of (global) plane p,
// including its leading in-plane halo cells.
func (w *wavefront[T]) planeBase(p int) int { return (p + w.pOff) * w.pLen }

// runWavefront advances inData K steps into outData under periodic boundary
// semantics, one pool dispatch per wavefront iteration. Program.Run has
// checked the grids and holds r.mu.
func (pr *Program[T]) runWavefront(pool *workerPool[T], outData, inData []T) {
	w := pr.wave
	K, rs, skew, n := pr.tv.K, w.rs, w.skew, w.n
	w.chunk = max(1, min(pr.tv.C, ceilDiv(w.rows*K, pool.workers)))
	total := n + (K-1)*skew
	for i := 0; i < total; i++ {
		nt := 0
		for s := 1; s <= K; s++ {
			j := i - (s-1)*skew
			if j < 0 || j >= w.count[s-1] {
				continue
			}
			t := &w.tasks[nt]
			nt++
			if s == K {
				t.dst = outData[w.planeBase(j) : w.planeBase(j)+w.pLen]
			} else {
				t.dst = w.scratch[s-1][j%w.ring]
			}
			if s == 1 {
				// Level 1 reads the input grid at wrapped interior planes;
				// extension planes (outside [0, n)) duplicate their wrapped
				// counterparts exactly, which keeps the periodic seam
				// bit-identical to sequential stepping.
				p := j - (K-1)*rs
				for dz := -rs; dz <= rs; dz++ {
					b := w.planeBase(wrapInt(p+dz, n))
					t.src[dz+rs] = inData[b : b+w.pLen]
				}
			} else {
				ringPlanes := w.scratch[s-2]
				for dz := -rs; dz <= rs; dz++ {
					t.src[dz+rs] = ringPlanes[(j+dz+rs)%w.ring]
				}
			}
			t.plan = &w.plans[s-1]
			for ti, dz := range w.termDz {
				t.plan.data[ti] = t.src[dz+rs]
			}
		}
		if nt == 0 {
			continue
		}
		w.active = nt
		pool.runWave(pr)
		// Refill the in-plane periodic halos of the intermediate planes just
		// computed, before the next iteration consumes them.
		for s := 1; s < K; s++ {
			j := i - (s-1)*skew
			if j >= 0 && j < w.count[s-1] {
				w.fillPlaneHalo(w.scratch[s-1][j%w.ring], pr.geom.halo)
			}
		}
	}
}

// runRows computes rows start..end of the current wavefront iteration's
// flat row space, mapping each index to its (task, row).
func (pr *Program[T]) runRows(start, end int) {
	w := pr.wave
	for idx := start; idx < end; idx++ {
		t := &w.tasks[idx/w.rows]
		runRow(t.plan, t.dst, w.rowB0+(idx%w.rows)*w.sx, w.nx, pr.fuse, pr.avx2)
	}
}

// fillPlaneHalo refills the in-plane periodic halo cells of a scratch plane
// to the kernel's radius: x halos of every interior row first, then (3-D)
// whole-row copies for the y halos so corners inherit the already-wrapped x
// cells — the same values the driver's per-axis-independent wrap produces.
func (w *wavefront[T]) fillPlaneHalo(p []T, halo int) {
	R, sx, nx := w.radius, w.sx, w.nx
	if !w.threeD {
		b := w.rowB0
		for h := 1; h <= R; h++ {
			p[b-h] = p[b+nx-h]
			p[b+nx-1+h] = p[b+h-1]
		}
		return
	}
	ny := w.rows
	for y := 0; y < ny; y++ {
		b := (y+halo)*sx + halo
		for h := 1; h <= R; h++ {
			p[b-h] = p[b+nx-h]
			p[b+nx-1+h] = p[b+h-1]
		}
	}
	for h := 1; h <= R; h++ {
		copy(p[(halo-h)*sx:(halo-h+1)*sx], p[(halo+ny-h)*sx:(halo+ny-h+1)*sx])
		copy(p[(halo+ny-1+h)*sx:(halo+ny+h)*sx], p[(halo+h-1)*sx:(halo+h)*sx])
	}
}
