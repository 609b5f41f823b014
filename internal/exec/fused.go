package exec

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/tunespace"
)

// Temporal blocking: fused multi-timestep execution. A FusedProgram advances
// the tuning vector's fusion depth K timesteps in a single streaming sweep,
// so each grid plane loaded from DRAM is reused K times while it is still
// cache-resident. On DRAM-bound stencils this trades a little redundant
// recomputation near the periodic seam for a K-fold cut in main-memory
// round-trips per step.
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

// maxCachedFused bounds the fused-program cache per Runner. Fused programs
// carry plane-ring scratch (K·(2·rs+2) planes), so both the entry count and
// the total scratch element count are bounded; exceeding either evicts
// arbitrary entries, never the one just inserted.
const (
	maxCachedFused      = 16
	maxCachedFusedElems = 32 << 20
)

// CanFuse reports whether a kernel is eligible for fused multi-timestep
// execution. Fusion interprets the single input grid as the current time
// level, so only single-buffer kernels qualify; multi-level kernels (wave
// equations) fall back to sequential stepping.
func CanFuse(k *LinearKernel) bool { return k.Buffers == 1 }

// fusedTask is one plane computation of the current wavefront iteration:
// destination plane, the 2·rs+1 source planes of the level below (indexed
// dz+rs), and the level's term plan.
type fusedTask[T grid.Float] struct {
	dst  []T
	src  [][]T
	plan *plan[T]
}

// FusedProgram is a compiled fused K-step execution plan for one (kernel,
// geometry, tuning vector) triple. Build it with Runner.CompileFused; run it
// with Run. Like Program, it is bound to concrete grids at each Run and
// performs no steady-state allocations.
type FusedProgram[T grid.Float] struct {
	r      *Runner[T]
	kernel *LinearKernel
	geom   geom
	tv     tunespace.Vector

	k      int  // fusion depth (timesteps per sweep)
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
	fuse   int       // generic-body fuse width, from tv.U
	avx2   bool      // generic body is the AVX2 span kernel (rows.go)

	tasks  [tunespace.MaxFuse]fusedTask[T]
	active int // tasks in flight this iteration, read by pool workers
	chunk  int // rows per work claim
}

// CompileFused returns the cached fused program for (k, out's geometry, tv),
// building it on first use. The fusion depth is tv.EffFuse(); depth 1 is a
// valid degenerate wavefront (a plain step). Fusion requires a single-buffer
// kernel, periodic boundary semantics (the caller must refresh the input's
// halos periodically before each Run, as driver.Simulation does), and a
// domain at least as wide as the kernel radius along every in-plane axis.
func (r *Runner[T]) CompileFused(k *LinearKernel, out, in *grid.Grid[T], tv tunespace.Vector) (*FusedProgram[T], error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if !CanFuse(k) {
		return nil, fmt.Errorf("exec: kernel %q has %d input buffers; fused execution requires 1", k.Name, k.Buffers)
	}
	if err := checkGeometry(k, out, []*grid.Grid[T]{in}); err != nil {
		return nil, err
	}
	dims := 3
	if out.NZ == 1 {
		dims = 2
		tv.Bz = 1
	}
	tv.K = tv.EffFuse()
	if err := tv.Validate(dims); err != nil {
		return nil, err
	}
	radius := k.MaxOffset()
	if out.NX < radius || (dims == 3 && out.NY < radius) {
		return nil, fmt.Errorf("exec: domain %dx%dx%d too small to fuse a radius-%d kernel (periodic halo fill assumes a single wrap)",
			out.NX, out.NY, out.NZ, radius)
	}

	key := progKey{kernel: k, geom: geomOf(out), tv: tv}
	r.mu.Lock()
	defer r.mu.Unlock()
	if fp, ok := r.fprogs[key]; ok {
		return fp, nil
	}
	fp, err := compileFused(r, k, out, tv, radius)
	if err != nil {
		return nil, err
	}
	if r.fprogs == nil {
		r.fprogs = make(map[progKey]*FusedProgram[T])
	}
	r.fprogs[key] = fp
	r.cachedFusedElems += fusedScratchElems(fp)
	r.evictFusedLocked(key)
	return fp, nil
}

func fusedScratchElems[T grid.Float](fp *FusedProgram[T]) int {
	return len(fp.scratch) * fp.ring * fp.pLen
}

// evictFusedLocked enforces the fused-cache bounds. Callers must hold r.mu.
func (r *Runner[T]) evictFusedLocked(keep progKey) {
	for key, fp := range r.fprogs {
		if len(r.fprogs) <= maxCachedFused && r.cachedFusedElems <= maxCachedFusedElems {
			return
		}
		if key == keep {
			continue
		}
		r.cachedFusedElems -= fusedScratchElems(fp)
		delete(r.fprogs, key)
	}
}

func compileFused[T grid.Float](r *Runner[T], k *LinearKernel, out *grid.Grid[T], tv tunespace.Vector, radius int) (*FusedProgram[T], error) {
	g := geomOf(out)
	fp := &FusedProgram[T]{
		r:      r,
		kernel: k,
		geom:   g,
		tv:     tv,
		k:      tv.EffFuse(),
		threeD: g.nz > 1,
		radius: radius,
		nx:     g.nx,
		sx:     g.strideX(),
		fuse:   fuseWidth(tv.U),
		avx2:   useAVX2,
	}
	if fp.threeD {
		fp.n = g.nz
		fp.rows = g.ny
		fp.pLen = g.strideX() * g.strideY()
		fp.pOff = g.haloZ
		fp.rowB0 = g.halo*fp.sx + g.halo
	} else {
		fp.n = g.ny
		fp.rows = 1
		fp.pLen = g.strideX()
		fp.pOff = g.halo
		fp.rowB0 = g.halo
	}

	// Split each term's flat offset into its stream-axis plane displacement
	// and the in-plane remainder; rs is the stream radius.
	fp.termDz = make([]int, len(k.Terms))
	inOff := make([]int, len(k.Terms))
	weights := make([]T, len(k.Terms))
	for i, t := range k.Terms {
		dz := t.Offset.Z
		if !fp.threeD {
			dz = t.Offset.Y
		}
		fp.termDz[i] = dz
		inOff[i] = out.OffsetIndex(t.Offset.X, t.Offset.Y, t.Offset.Z) - dz*fp.pLen
		weights[i] = T(t.Weight)
		if dz < 0 {
			dz = -dz
		}
		if dz > fp.rs {
			fp.rs = dz
		}
	}
	fp.skew = 2*fp.rs + 1
	fp.ring = 2*fp.rs + 2

	// Every row reads its source planes at in-plane offsets: prove the
	// accesses from the first row's first point to the last row's last
	// point stay inside a plane, as checkReads does for single-step spans.
	lo, hi := accessRange(inOff)
	if err := checkSpan(fp.rowB0, fp.rowB0+(fp.rows-1)*fp.sx+fp.nx-1, lo, hi, fp.pLen); err != nil {
		return nil, fmt.Errorf("exec: kernel %q: %w", k.Name, err)
	}

	// Per-level plans: idxOff and weights are shared read-only slices; each
	// level owns its data bindings because all K levels of one iteration
	// execute concurrently.
	fp.plans = make([]plan[T], fp.k)
	for s := range fp.plans {
		fp.plans[s] = plan[T]{idxOff: inOff, weight: weights, data: make([][]T, len(k.Terms))}
	}

	fp.count = make([]int, fp.k)
	for s := 1; s <= fp.k; s++ {
		fp.count[s-1] = fp.n + 2*fp.rs*(fp.k-s)
	}
	if fp.k > 1 {
		fp.scratch = make([][][]T, fp.k-1)
		for s := range fp.scratch {
			fp.scratch[s] = make([][]T, fp.ring)
			for i := range fp.scratch[s] {
				fp.scratch[s][i] = make([]T, fp.pLen)
			}
		}
	}
	for i := range fp.tasks {
		fp.tasks[i].src = make([][]T, fp.skew)
	}
	return fp, nil
}

func wrapInt(v, n int) int { return ((v % n) + n) % n }

// planeBase returns the flat index of the start of (global) plane p,
// including its leading in-plane halo cells.
func (fp *FusedProgram[T]) planeBase(p int) int { return (p + fp.pOff) * fp.pLen }

// Run advances the input grid k steps into out under periodic boundary
// semantics: out receives the state after Steps() applications of the
// kernel. The caller must have refreshed in's halos with the periodic wrap
// rule; in is read-only and out must not alias it. Both grids must match the
// compiled geometry. Steady-state calls allocate nothing.
func (fp *FusedProgram[T]) Run(out, in *grid.Grid[T]) error {
	if geomOf(out) != fp.geom {
		return fmt.Errorf("exec: output geometry %+v mismatches compiled geometry %+v", geomOf(out), fp.geom)
	}
	if geomOf(in) != fp.geom {
		return fmt.Errorf("exec: input geometry %+v mismatches compiled geometry %+v", geomOf(in), fp.geom)
	}
	inData, outData := in.Data(), out.Data()
	if &inData[0] == &outData[0] {
		return fmt.Errorf("exec: fused execution requires distinct input and output grids")
	}
	r := fp.r
	r.mu.Lock()
	defer r.mu.Unlock()
	pool := r.poolLocked()

	K, rs, skew, n := fp.k, fp.rs, fp.skew, fp.n
	fp.chunk = max(1, min(fp.tv.C, ceilDiv(fp.rows*K, pool.workers)))
	total := n + (K-1)*skew
	for i := 0; i < total; i++ {
		nt := 0
		for s := 1; s <= K; s++ {
			j := i - (s-1)*skew
			if j < 0 || j >= fp.count[s-1] {
				continue
			}
			t := &fp.tasks[nt]
			nt++
			if s == K {
				t.dst = outData[fp.planeBase(j) : fp.planeBase(j)+fp.pLen]
			} else {
				t.dst = fp.scratch[s-1][j%fp.ring]
			}
			if s == 1 {
				// Level 1 reads the input grid at wrapped interior planes;
				// extension planes (outside [0, n)) duplicate their wrapped
				// counterparts exactly, which keeps the periodic seam
				// bit-identical to sequential stepping.
				p := j - (K-1)*rs
				for dz := -rs; dz <= rs; dz++ {
					b := fp.planeBase(wrapInt(p+dz, n))
					t.src[dz+rs] = inData[b : b+fp.pLen]
				}
			} else {
				ringPlanes := fp.scratch[s-2]
				for dz := -rs; dz <= rs; dz++ {
					t.src[dz+rs] = ringPlanes[(j+dz+rs)%fp.ring]
				}
			}
			t.plan = &fp.plans[s-1]
			for ti, dz := range fp.termDz {
				t.plan.data[ti] = t.src[dz+rs]
			}
		}
		if nt == 0 {
			continue
		}
		fp.active = nt
		pool.runFused(fp)
		// Refill the in-plane periodic halos of the intermediate planes just
		// computed, before the next iteration consumes them.
		for s := 1; s < K; s++ {
			j := i - (s-1)*skew
			if j >= 0 && j < fp.count[s-1] {
				fp.fillPlaneHalo(fp.scratch[s-1][j%fp.ring])
			}
		}
	}
	return nil
}

// runRows computes rows start..end of the current wavefront iteration's
// flat row space, mapping each index to its (task, row).
func (fp *FusedProgram[T]) runRows(start, end int) {
	for idx := start; idx < end; idx++ {
		fp.runRow(&fp.tasks[idx/fp.rows], idx%fp.rows)
	}
}

// runRow computes one interior row of one task's destination plane.
func (fp *FusedProgram[T]) runRow(t *fusedTask[T], y int) {
	runRow(t.plan, t.dst, fp.rowB0+y*fp.sx, fp.nx, fp.fuse, fp.avx2)
}

// fillPlaneHalo refills the in-plane periodic halo cells of a scratch plane
// to the kernel's radius: x halos of every interior row first, then (3-D)
// whole-row copies for the y halos so corners inherit the already-wrapped x
// cells — the same values the driver's per-axis-independent wrap produces.
func (fp *FusedProgram[T]) fillPlaneHalo(p []T) {
	R, sx, nx := fp.radius, fp.sx, fp.nx
	halo := fp.geom.halo
	if !fp.threeD {
		b := fp.rowB0
		for h := 1; h <= R; h++ {
			p[b-h] = p[b+nx-h]
			p[b+nx-1+h] = p[b+h-1]
		}
		return
	}
	ny := fp.rows
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
