package exec

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/tunespace"
)

// geom captures the grid geometry a compiled program is specialized to. Two
// grids with equal geom have identical strides, so a program's flat-index
// displacements and tile list are valid for any of them — of either element
// type; geom is deliberately type-free so the tile decomposition and span
// plan are shared logic across Runner instantiations.
type geom struct {
	nx, ny, nz  int
	halo, haloZ int
}

func geomOf[T grid.Float](g *grid.Grid[T]) geom {
	return geom{nx: g.NX, ny: g.NY, nz: g.NZ, halo: g.Halo, haloZ: g.HaloZ}
}

// strideX returns the allocated row length, matching grid.Grid.StrideX.
func (g geom) strideX() int { return g.nx + 2*g.halo }

// strideY returns the allocated rows per plane, matching grid.Grid.StrideY.
func (g geom) strideY() int { return g.ny + 2*g.halo }

// size returns the total allocated element count, matching grid.Grid.Len.
func (g geom) size() int { return g.strideX() * g.strideY() * (g.nz + 2*g.haloZ) }

// index returns the flat index of interior coordinate (x, y, z), matching
// grid.Grid.Index.
func (g geom) index(x, y, z int) int {
	return ((z+g.haloZ)*g.strideY()+(y+g.halo))*g.strideX() + (x + g.halo)
}

// progKey identifies a compiled program: kernel identity (by pointer — a
// kernel must not be mutated after first use), grid geometry, and the
// normalized tuning vector. The element type needs no key component: each
// Runner instantiation owns its own cache.
type progKey struct {
	kernel *LinearKernel
	geom   geom
	tv     tunespace.Vector
}

// Cache bounds. A program's dominant memory is its tile list and row-span
// plan; small blocking sizes on large grids produce millions of tiles, and
// the span plan holds one (base, n) pair per grid row regardless of tiling,
// so eviction is driven by the total cached tile and span counts as well as
// the program count. Exceeding any bound evicts arbitrary entries (never the
// one just inserted).
const (
	maxCachedPrograms = 512
	maxCachedTiles    = 1 << 20
	maxCachedSpans    = 4 << 20
)

// Program is a compiled execution plan: the exact-size tile decomposition,
// its flattened row-span plan, the flattened term plan and the fast-path
// selection for one (kernel, geometry, tuning vector) triple, precomputed so
// repeated executions only rebind grid data and dispatch to the persistent
// worker pool. Programs are created and cached by Runner.Compile and execute
// via Program.Run against any grids of the compiled geometry and element
// type.
type Program[T grid.Float] struct {
	r      *Runner[T]
	kernel *LinearKernel
	geom   geom
	tv     tunespace.Vector

	tiles []tile
	// spans flattens every tile into (base, n) row-span pairs — base is the
	// flat index of the row's first interior point, n its length — so workers
	// walk rows linearly with no Index() calls or per-row arithmetic beyond a
	// pointer bump. Tile i owns pairs spanStart[i]..spanStart[i+1]. spans is
	// nil only for grids too large for int32 flat indices; those fall back to
	// computing row bases on the fly (runTile).
	spans     []int32
	spanStart []int32
	fuse      int  // generic-body fuse width, from tv.U
	avx2      bool // generic body is the AVX2 span kernel (rows.go)

	termBuf []int   // source buffer per term, for per-run data rebinding
	p       plan[T] // idxOff/weight fixed at compile; data rebound per run
	fp      *fastPlan[T]
}

// Compile returns the cached program for (k, out's geometry, tv), building
// and caching it on first use. The input grids are only used for validation —
// the program is bound to concrete data at each Run.
func (r *Runner[T]) Compile(k *LinearKernel, out *grid.Grid[T], ins []*grid.Grid[T], tv tunespace.Vector) (*Program[T], error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := checkGeometry(k, out, ins); err != nil {
		return nil, err
	}
	dims := 3
	if out.NZ == 1 {
		dims = 2
		tv.Bz = 1
	}
	if err := tv.Validate(dims); err != nil {
		return nil, err
	}

	key := progKey{kernel: k, geom: geomOf(out), tv: tv}
	r.mu.Lock()
	defer r.mu.Unlock()
	if pr, ok := r.progs[key]; ok {
		return pr, nil
	}
	pr, err := compileProgram(r, k, out, tv)
	if err != nil {
		return nil, err
	}
	if r.progs == nil {
		r.progs = make(map[progKey]*Program[T])
	}
	r.progs[key] = pr
	r.cachedTiles += len(pr.tiles)
	r.cachedSpans += len(pr.spans) / 2
	r.evictLocked(key)
	return pr, nil
}

// compileProgram does the actual precomputation for one cache entry. It
// fails when a span would read outside the grid.
func compileProgram[T grid.Float](r *Runner[T], k *LinearKernel, out *grid.Grid[T], tv tunespace.Vector) (*Program[T], error) {
	pr := &Program[T]{
		r:       r,
		kernel:  k,
		geom:    geomOf(out),
		tv:      tv,
		termBuf: make([]int, len(k.Terms)),
		p: plan[T]{
			idxOff: make([]int, len(k.Terms)),
			weight: make([]T, len(k.Terms)),
			data:   make([][]T, len(k.Terms)),
		},
	}
	for i, t := range k.Terms {
		pr.p.idxOff[i] = out.OffsetIndex(t.Offset.X, t.Offset.Y, t.Offset.Z)
		pr.p.weight[i] = T(t.Weight)
		pr.termBuf[i] = t.Buffer
	}
	pr.fp = detectFast(k, &pr.p)
	pr.tiles = decompose(pr.geom, tv)
	pr.fuse = fuseWidth(tv.U)
	pr.spans, pr.spanStart = buildSpans(pr.geom, pr.tiles)
	if err := pr.checkReads(); err != nil {
		return nil, fmt.Errorf("exec: kernel %q: %w", k.Name, err)
	}
	pr.avx2 = useAVX2 && pr.fp == nil
	return pr, nil
}

// checkReads proves that every row span of the program reads and writes
// inside the grid. The AVX2 span kernel has no bounds checks, so this one
// pass at compile time is what keeps it memory-safe. Programs without a span
// plan are checked tile by tile, from each tile's first interior point to
// its last.
func (pr *Program[T]) checkReads() error {
	g := pr.geom
	lo, hi := accessRange(pr.p.idxOff)
	if pr.spans == nil {
		for _, t := range pr.tiles {
			if err := checkSpan(g.index(t.x0, t.y0, t.z0), g.index(t.x1-1, t.y1-1, t.z1-1), lo, hi, g.size()); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i+1 < len(pr.spans); i += 2 {
		base := int(pr.spans[i])
		if err := checkSpan(base, base+int(pr.spans[i+1])-1, lo, hi, g.size()); err != nil {
			return err
		}
	}
	return nil
}

// accessRange returns the lowest and highest flat displacement a point's
// row body touches: its own output element (0) and every term's source.
func accessRange(off []int) (lo, hi int) {
	for _, o := range off {
		lo, hi = min(lo, o), max(hi, o)
	}
	return lo, hi
}

// checkSpan fails unless the points first..last, whose accesses reach from
// first+lo to last+hi, stay inside [0, size).
func checkSpan(first, last, lo, hi, size int) error {
	if first+lo < 0 || last+hi >= size {
		return fmt.Errorf("points %d..%d access [%d, %d], outside the %d allocated elements",
			first, last, first+lo, last+hi, size)
	}
	return nil
}

// buildSpans flattens the tile list into (base, n) row-span pairs plus the
// per-tile first-pair index (spanStart[len(tiles)] caps the last tile).
// Grids whose flat indices or total row counts overflow int32 — more than
// 16 GB of float64, or billions of rows — get no span plan and execute
// through the on-the-fly fallback.
func buildSpans(g geom, tiles []tile) (spans, spanStart []int32) {
	if g.size() > math.MaxInt32 {
		return nil, nil
	}
	rows := 0
	for _, t := range tiles {
		rows += (t.y1 - t.y0) * (t.z1 - t.z0)
	}
	if rows > math.MaxInt32/2 {
		return nil, nil
	}
	spans = make([]int32, 0, 2*rows)
	spanStart = make([]int32, len(tiles)+1)
	for i, t := range tiles {
		spanStart[i] = int32(len(spans) / 2)
		n := int32(t.x1 - t.x0)
		for z := t.z0; z < t.z1; z++ {
			base := g.index(t.x0, t.y0, z)
			for y := t.y0; y < t.y1; y++ {
				spans = append(spans, int32(base), n)
				base += g.strideX()
			}
		}
	}
	spanStart[len(tiles)] = int32(len(spans) / 2)
	return spans, spanStart
}

// evictLocked enforces the cache bounds, never evicting keep (the entry just
// inserted). Callers must hold r.mu.
func (r *Runner[T]) evictLocked(keep progKey) {
	for key, pr := range r.progs {
		if len(r.progs) <= maxCachedPrograms && r.cachedTiles <= maxCachedTiles &&
			r.cachedSpans <= maxCachedSpans {
			return
		}
		if key == keep {
			continue
		}
		r.cachedTiles -= len(pr.tiles)
		r.cachedSpans -= len(pr.spans) / 2
		delete(r.progs, key)
	}
}

// Run executes the program against concrete grids of the compiled geometry:
// term data slices are rebound (so ring-buffer rotation and workspace reuse
// need no recompilation) and tiles are dispatched to the persistent worker
// pool. It performs no allocations.
func (pr *Program[T]) Run(out *grid.Grid[T], ins []*grid.Grid[T]) error {
	if len(ins) != pr.kernel.Buffers {
		return fmt.Errorf("exec: program for kernel %q wants %d buffers, got %d",
			pr.kernel.Name, pr.kernel.Buffers, len(ins))
	}
	if geomOf(out) != pr.geom {
		return fmt.Errorf("exec: output geometry %+v mismatches compiled geometry %+v", geomOf(out), pr.geom)
	}
	size := pr.geom.size()
	if len(out.Data()) < size {
		return fmt.Errorf("exec: output holds %d elements, geometry needs %d", len(out.Data()), size)
	}
	for i, g := range ins {
		if geomOf(g) != pr.geom {
			return fmt.Errorf("exec: buffer %d geometry %+v mismatches compiled geometry %+v", i, geomOf(g), pr.geom)
		}
		if len(g.Data()) < size {
			return fmt.Errorf("exec: buffer %d holds %d elements, geometry needs %d", i, len(g.Data()), size)
		}
	}
	r := pr.r
	r.mu.Lock()
	for i, b := range pr.termBuf {
		pr.p.data[i] = ins[b].Data()
	}
	r.poolLocked().run(pr, out)
	r.mu.Unlock()
	return nil
}

// Tiles reports the number of tiles in the compiled decomposition.
func (pr *Program[T]) Tiles() int { return len(pr.tiles) }
