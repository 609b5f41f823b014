package exec

import (
	"fmt"
	"math"
	"sync/atomic"

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

// checkSize fails for a geometry whose flat indices overflow the int32 span
// plan: more than math.MaxInt32 elements, 16 GiB of float64. Compile calls
// it before anything is allocated for the geometry.
func (g geom) checkSize() error {
	if g.size() > math.MaxInt32 {
		return fmt.Errorf("exec: %dx%dx%d grid holds %d elements, more than the %d an int32 span plan indexes",
			g.nx, g.ny, g.nz, g.size(), math.MaxInt32)
	}
	return nil
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

// layoutKey identifies a layout: the grid geometry and the blocking sizes,
// the only inputs of the tile decomposition and its span plan.
type layoutKey struct {
	geom       geom
	bx, by, bz int
}

// Cache bounds. A one-step program's dominant memory is its layout's tile
// list and row-span plan; small blocking sizes on large grids produce
// millions of tiles, and the span plan holds one (base, n) pair per grid row
// regardless of tiling, so layout eviction is driven by the total cached
// tile and span counts as well as the layout count. Programs are bounded by
// count and by the wavefront programs' plane-ring scratch (K-1 levels of
// 2·rs+2 planes each). Exceeding any bound evicts arbitrary entries (never
// the one just inserted); evicting a layout drops every program compiled on
// it.
const (
	maxCachedPrograms = 512
	maxCachedScratch  = 32 << 20
	maxCachedLayouts  = 512
	maxCachedTiles    = 1 << 20
	maxCachedSpans    = 4 << 20
)

// layout is the part of a compiled program that depends only on the grid
// geometry and the blocking (bx, by, bz): the exact-size tile decomposition
// and its flattened row-span plan. Every kernel and every (u, c) compiled on
// one (geometry, bx, by, bz) shares one layout, which is immutable once
// built.
type layout struct {
	tiles []tile
	// spans flattens every tile into (base, n) row-span pairs — base is the
	// flat index of the row's first interior point, n its length — so workers
	// walk rows linearly with no Index() calls or per-row arithmetic beyond a
	// pointer bump. Tile i owns pairs spanStart[i]..spanStart[i+1].
	spans     []int32
	spanStart []int32
	// first and last are the lowest first point and the highest last point
	// over the spans: the interior's first and last flat indices. Every
	// point a program of this layout computes lies between them, which makes
	// its bounds proof one checkSpan.
	first, last int
}

// newLayout decomposes the interior into tiles, flattens them into row
// spans and records the extreme points.
func newLayout(g geom, tv tunespace.Vector) *layout {
	l := &layout{tiles: decompose(g, tv)}
	l.spans, l.spanStart = buildSpans(g, l.tiles)
	l.first, l.last = l.extremes()
	return l
}

// extremes returns the lowest first point and the highest last point over
// the layout's spans.
func (l *layout) extremes() (first, last int) {
	first, last = math.MaxInt, math.MinInt
	for i := 0; i+1 < len(l.spans); i += 2 {
		base := int(l.spans[i])
		first = min(first, base)
		last = max(last, base+int(l.spans[i+1])-1)
	}
	return first, last
}

// Program is a compiled execution plan for one (kernel, geometry, tuning
// vector) triple. A one-step program points at the layout shared by every
// program of its (geometry, bx, by, bz) and holds its own flattened term
// plan; a wavefront program (fused.go) advances Steps() timesteps per Run
// and has no layout. Both carry their fuse width and row body, precomputed
// so repeated executions only rebind grid data and dispatch to the
// persistent worker pool. Programs are created and cached by Runner.Compile
// and execute via Program.Run against any grids of the compiled geometry
// and element type.
type Program[T grid.Float] struct {
	r      *Runner[T]
	kernel *LinearKernel
	geom   geom
	tv     tunespace.Vector // normalized: K is the steps one Run advances

	*layout               // nil for a wavefront program
	fuse    int           // generic-body fuse width, from tv.U
	avx2    bool          // generic body is the AVX2 span kernel (rows.go)
	wave    *wavefront[T] // nil for a one-step program

	termBuf []int   // source buffer per term, for per-run data rebinding
	p       plan[T] // idxOff/weight fixed at compile; data rebound per run
}

// Steps reports how many timesteps one Run advances.
func (pr *Program[T]) Steps() int { return pr.tv.K }

// Compile returns the cached program for (k, out's geometry, tv), building
// and caching it on first use. It decides how the vector runs: when the
// fusion depth K = tv.EffFuse() exceeds 1, the kernel has one buffer and
// the domain is at least the kernel radius wide in-plane, the program is a
// wavefront that advances K steps per Run under periodic boundary semantics
// (the caller refreshes the input's halos by the periodic rule before each
// Run, as driver.Simulation does); otherwise it is the one-step tiled
// program, and K is normalized to 1, so every depth that cannot fuse shares
// one cache entry. A new one-step program builds only its term plan: the
// tiles and row spans come from the Runner's layout cache, so compiling a
// new kernel on a known (geometry, bx, by, bz) costs O(terms). The input
// grids are only used for validation — the program is bound to concrete
// data at each Run.
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
	g := geomOf(out)
	if err := g.checkSize(); err != nil {
		return nil, err
	}
	radius := k.MaxOffset()
	if tv.EffFuse() > 1 && k.Buffers == 1 && out.NX >= radius && (dims == 2 || out.NY >= radius) {
		tv.K = tv.EffFuse()
	} else {
		tv.K = 1
	}

	key := progKey{kernel: k, geom: g, tv: tv}
	r.mu.Lock()
	defer r.mu.Unlock()
	if pr, ok := r.progs[key]; ok {
		r.progStats.hits.Add(1)
		return pr, nil
	}
	r.progStats.misses.Add(1)
	var pr *Program[T]
	var err error
	if tv.K > 1 {
		pr, err = compileWavefront(r, k, out, tv, radius)
	} else {
		pr, err = compileProgram(r, k, out, tv, r.layoutLocked(g, tv))
	}
	if err != nil {
		return nil, err
	}
	if r.progs == nil {
		r.progs = make(map[progKey]*Program[T])
	}
	r.progs[key] = pr
	r.cachedScratch += pr.scratchElems()
	r.evictProgramsLocked(key)
	return pr, nil
}

// layoutLocked returns the cached layout for (g, bx, by, bz), building and
// caching it on first use. Callers must hold r.mu.
func (r *Runner[T]) layoutLocked(g geom, tv tunespace.Vector) *layout {
	key := layoutKey{geom: g, bx: tv.Bx, by: tv.By, bz: tv.Bz}
	if l, ok := r.layouts[key]; ok {
		r.layoutStats.hits.Add(1)
		return l
	}
	r.layoutStats.misses.Add(1)
	l := newLayout(g, tv)
	if r.layouts == nil {
		r.layouts = make(map[layoutKey]*layout)
	}
	r.layouts[key] = l
	r.cachedTiles += len(l.tiles)
	r.cachedSpans += len(l.spans) / 2
	r.evictLayoutsLocked(key)
	return l
}

// compileProgram builds one program's term plan on its layout. It fails
// when the kernel would read outside the grid.
func compileProgram[T grid.Float](r *Runner[T], k *LinearKernel, out *grid.Grid[T], tv tunespace.Vector, l *layout) (*Program[T], error) {
	pr := &Program[T]{
		r:       r,
		kernel:  k,
		geom:    geomOf(out),
		tv:      tv,
		layout:  l,
		fuse:    fuseWidth(tv.U),
		avx2:    useAVX2,
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
	if err := pr.checkReads(); err != nil {
		return nil, fmt.Errorf("exec: kernel %q: %w", k.Name, err)
	}
	return pr, nil
}

// checkReads proves that every point of the program reads and writes inside
// the grid. The AVX2 span kernel has no bounds checks, so this proof at
// compile time is what keeps it memory-safe. Every span runs points between
// its layout's first and last points, so checking those two extremes proves
// exactly what checking each span would, in O(1) per program.
func (pr *Program[T]) checkReads() error {
	lo, hi := accessRange(pr.p.idxOff)
	return checkSpan(pr.first, pr.last, lo, hi, pr.geom.size())
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
// Compile admits only grids of at most math.MaxInt32 elements, so every
// flat index and the row count fit in int32.
func buildSpans(g geom, tiles []tile) (spans, spanStart []int32) {
	rows := 0
	for _, t := range tiles {
		rows += (t.y1 - t.y0) * (t.z1 - t.z0)
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

// evictProgramsLocked enforces the program count and scratch bounds, never
// evicting keep (the entry just inserted). Callers must hold r.mu.
func (r *Runner[T]) evictProgramsLocked(keep progKey) {
	for key, pr := range r.progs {
		if len(r.progs) <= maxCachedPrograms && r.cachedScratch <= maxCachedScratch {
			return
		}
		if key != keep {
			r.dropProgramLocked(key, pr)
		}
	}
}

// dropProgramLocked evicts one cached program. Callers must hold r.mu.
func (r *Runner[T]) dropProgramLocked(key progKey, pr *Program[T]) {
	r.cachedScratch -= pr.scratchElems()
	delete(r.progs, key)
	r.progStats.evictions.Add(1)
}

// evictLayoutsLocked enforces the layout bounds, never evicting keep (the
// layout just inserted). Evicting a layout drops every program compiled on
// it, so no cached program points at an evicted layout; wavefront programs
// have no layout and stay. Callers must hold r.mu.
func (r *Runner[T]) evictLayoutsLocked(keep layoutKey) {
	for key, l := range r.layouts {
		if len(r.layouts) <= maxCachedLayouts && r.cachedTiles <= maxCachedTiles &&
			r.cachedSpans <= maxCachedSpans {
			return
		}
		if key == keep {
			continue
		}
		r.cachedTiles -= len(l.tiles)
		r.cachedSpans -= len(l.spans) / 2
		delete(r.layouts, key)
		r.layoutStats.evictions.Add(1)
		for pk, pr := range r.progs {
			if pr.layout == l {
				r.dropProgramLocked(pk, pr)
			}
		}
	}
}

// CacheStats counts one executor cache's lookups since its Runner was
// created: hits, misses (each builds an entry) and evictions. Close drops
// the cached entries but not the counts.
type CacheStats struct {
	Hits, Misses, Evictions uint64
}

// cacheCounters holds CacheStats in atomics: they change under r.mu, but
// readers need not wait for a run, which holds r.mu for a whole sweep.
type cacheCounters struct {
	hits, misses, evictions atomic.Uint64
}

func (c *cacheCounters) load() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load()}
}

// plus returns the element-wise sum of two counts.
func (s CacheStats) plus(o CacheStats) CacheStats {
	return CacheStats{Hits: s.Hits + o.Hits, Misses: s.Misses + o.Misses, Evictions: s.Evictions + o.Evictions}
}

// CacheStats reports the program and layout cache counts; the program
// counts cover one-step and wavefront programs alike. It never blocks on a
// run in flight.
func (r *Runner[T]) CacheStats() (programs, layouts CacheStats) {
	return r.progStats.load(), r.layoutStats.load()
}

// Run executes the program against concrete grids of the compiled geometry:
// term data slices are rebound (so ring-buffer rotation and workspace reuse
// need no recompilation) and the work is dispatched to the persistent
// worker pool. A one-step program writes one step of ins into out; a
// wavefront program writes the state Steps() steps after ins[0] into out,
// which must not alias it. Run performs no allocations.
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
	if pr.wave != nil && size > 0 && &out.Data()[0] == &ins[0].Data()[0] {
		return fmt.Errorf("exec: a %d-step program requires distinct input and output grids", pr.Steps())
	}
	r := pr.r
	r.mu.Lock()
	if pr.wave != nil {
		pr.runWavefront(r.poolLocked(), out.Data(), ins[0].Data())
	} else {
		for i, b := range pr.termBuf {
			pr.p.data[i] = ins[b].Data()
		}
		r.poolLocked().run(pr, out)
	}
	r.mu.Unlock()
	return nil
}
