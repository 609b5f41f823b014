package feature

import (
	"math"
	"math/bits"

	"repro/internal/tunespace"
)

// Tail slots: the positions of a tuning vector's components in ascending
// feature-index order. A named component is a slot of its own; a one-hot
// block is one slot whose index is the block's base plus the bin, and the
// blocks do not overlap, so slot order is index order for every vector.
const (
	slotBx = iota
	slotBy
	slotBz
	slotUnroll
	slotChunk
	slotBx2
	slotBy2
	slotBz2
	slotUnroll2
	slotChunk2
	slotTileWS
	slotTileWS2
	slotFracX
	slotFracY
	slotFracZ
	slotNumTiles
	slotTileGroups
	slotTileGroups2
	slotUnrollDensity
	slotInnerStream
	slotInnerStream2
	slotDTypeBx
	slotDensityWS
	slotWSBin
	slotBxBin
	slotByBin
	slotBzBin
	slotUnrollBin
	slotChunkBin
	slotBalanceBin
	slotFuse
	slotFuse2
	slotFuseDensity
	slotFuseWS
	slotFuseBin
	// maxTail is the slot count, so it bounds a tail's components: 10
	// tuning terms, 14 interaction terms, 5 tuning bins, 1 balance bin and
	// 5 fusion terms.
	maxTail
)

// term is one tail component; a zero value is not emitted.
type term struct {
	idx int32
	val float64
}

// group holds the terms of one dependency group: the components that read
// the same few tuning parameters. Each group function below returns its
// terms in the order of the group's slot list, and is the one definition of
// those components' formulas: Encode and ScoreInto both call it.
type group [5]term

// Slot lists of the groups, one entry per term a group function returns.
var (
	axisSlots = [3][]uint8{
		{slotBx, slotBx2, slotFracX, slotBxBin, slotDTypeBx},
		{slotBy, slotBy2, slotFracY, slotByBin},
		{slotBz, slotBz2, slotFracZ, slotBzBin},
	}
	unrollSlots = []uint8{slotUnroll, slotUnroll2, slotUnrollDensity, slotUnrollBin}
	chunkSlots  = []uint8{slotChunk, slotChunk2, slotChunkBin}
	shapeSlots  = []uint8{slotTileWS, slotTileWS2, slotNumTiles, slotDensityWS, slotWSBin}
	groupsSlots = []uint8{slotTileGroups, slotTileGroups2, slotBalanceBin}
	innerSlots  = []uint8{slotInnerStream, slotInnerStream2}
	fuseSlots   = []uint8{slotFuse, slotFuse2, slotFuseDensity, slotFuseWS, slotFuseBin}
)

// Per-axis feature indices: block edge, its square, the tile's fraction of
// the grid extent and the first bin of the edge's one-hot block.
var axisIdx = [3]struct{ b, b2, frac, bin0 int32 }{
	{idxBx, idxBx2, idxFracX, idxBxBin0},
	{idxBy, idxBy2, idxFracY, idxByBin0},
	{idxBz, idxBz2, idxFracZ, idxBzBin0},
}

// axisTerms returns the components of block edge b on axis a (0, 1, 2 for
// x, y, z): the log-scaled edge and its square, the effective tile's
// fraction of the grid extent, the edge's one-hot bin, and on x the
// dtype × edge coupling.
func (p *Plan) axisTerms(a, b int) (g group) {
	ix := axisIdx[a]
	l2b := log2(float64(b))
	lb := l2b / maxLogBlock
	g[0] = term{ix.b, clamp01(lb)}
	g[1] = term{ix.b2, clamp01(lb * lb)}
	// One-hot power-of-two block bins: log2(b) in [1, 10] → bins 0..9.
	// A 2-D vector's z edge of 1 has no bin.
	if a < 2 || b > 1 {
		g[3] = term{ix.bin0 + int32(binIndex(l2b, 1, 11, blockBins)), 1}
	}
	// Effective tile extents never exceed the grid.
	n := [3]int{p.size.X, p.size.Y, p.size.Z}[a]
	g[2] = term{ix.frac, clamp01(float64(min(b, n)) / float64(n))}
	if a == 0 {
		g[4] = term{idxDTypeBx, clamp01(p.dtype * lb)}
	}
	return g
}

// unrollTerms returns the components of unroll factor u.
func (p *Plan) unrollTerms(u int) (g group) {
	un := float64(u) / tunespace.MaxUnroll
	g[0] = term{idxUnroll, clamp01(un)}
	g[1] = term{idxUnroll2, clamp01(un * un)}
	g[2] = term{idxUnrollDensity, clamp01(un * p.density)}
	g[3] = term{idxUnrollBin0 + int32(min(max(u, 0), unrollBins-1)), 1}
	return g
}

// chunkTerms returns the components of chunk size c.
func (p *Plan) chunkTerms(c int) (g group) {
	l2c := log2(float64(c))
	lch := l2c / maxLogChunk
	g[0] = term{idxChunk, clamp01(lch)}
	g[1] = term{idxChunk2, clamp01(lch * lch)}
	g[2] = term{idxChunkBin0 + int32(binIndex(l2c, 0, 5, chunkBins)), 1}
	return g
}

// tileShape is what the shape groups read of a tile shape (bx, by, bz): the
// effective tile's working set in bytes and the number of tiles covering
// the grid. Many shapes share both values.
type tileShape struct {
	ws, tiles float64
}

// tileShapeOf returns the tile shape of block edges (bx, by, bz).
func (p *Plan) tileShapeOf(bx, by, bz int) tileShape {
	sz := p.size
	// Effective tile extents never exceed the grid.
	return tileShape{
		ws: float64(min(bx, sz.X)) * float64(min(by, sz.Y)) * float64(min(bz, sz.Z)) *
			p.bytes * p.buffers,
		tiles: float64(ceilDiv(sz.X, bx)) * float64(ceilDiv(sz.Y, by)) *
			float64(ceilDiv(sz.Z, max(1, bz))),
	}
}

// shapeTerms returns the components of tile shape sh: the tile working set,
// its square, the tile count, density × working set and the working set's
// bin.
func (p *Plan) shapeTerms(sh tileShape) (g group) {
	l2ws := log2(sh.ws)
	lws := l2ws / maxLogWS
	g[0] = term{idxTileWS, clamp01(lws)}
	g[1] = term{idxTileWS2, clamp01(lws * lws)}
	g[2] = term{idxNumTiles, clamp01(log2(sh.tiles) / maxLogTiles)}
	g[3] = term{idxDensityWS, clamp01(p.density * lws)}
	// Working-set bin: log2(WS bytes) mapped to 8 bins over [10, 26).
	g[4] = term{idxWSBin0 + int32(binIndex(l2ws, 10, 26, wsBins)), 1}
	return g
}

// groups returns the number of dispatch groups the shape's tiles form at
// chunk size c: each thread assignment takes c consecutive tiles.
func (sh tileShape) groups(c int) float64 { return sh.tiles / float64(c) }

// groupsTerms returns the components of n dispatch groups and their
// parallel-balance bin.
func (p *Plan) groupsTerms(n float64) (g group) {
	l2groups := log2(math.Max(1, n))
	lgroups := l2groups / maxLogTiles
	g[0] = term{idxTileGroups, clamp01(lgroups)}
	g[1] = term{idxTileGroups2, clamp01(lgroups * lgroups)}
	// Parallel-balance bin: log2(dispatch groups) over [0, 18).
	g[2] = term{idxBalanceBin0 + int32(binIndex(l2groups, 0, 18, balanceBins)), 1}
	return g
}

// innerTerms returns the components of the innermost stream a tile of
// x-edge bx unrolled by u walks.
func (p *Plan) innerTerms(bx, u int) (g group) {
	inner := log2(float64(min(bx, p.size.X))*float64(u+1)) / maxLogInner
	g[0] = term{idxInnerStream, clamp01(inner)}
	g[1] = term{idxInnerStream2, clamp01(inner * inner)}
	return g
}

// fuseTerms returns the temporal-fusion components of effective depth kf on
// tile shape sh. They are emitted only for genuinely fused vectors, so an
// unfused vector's encoding is byte-identical to the pre-fusion one.
func (p *Plan) fuseTerms(sh tileShape, kf int) (g group) {
	if kf <= 1 {
		return g
	}
	fu := float64(kf-1) / float64(tunespace.MaxFuse-1)
	g[0] = term{idxFuse, clamp01(fu)}
	g[1] = term{idxFuse2, clamp01(fu * fu)}
	// Fusion pays off in proportion to how DRAM-bound the sweep is: the
	// interactions couple depth to stencil density and to the spatial
	// tile's working set.
	g[2] = term{idxFuseDensity, clamp01(fu * p.density)}
	g[3] = term{idxFuseWS, clamp01(fu * log2(sh.ws) / maxLogWS)}
	g[4] = term{idxFuseBin0 + int32(kf-2), 1}
	return g
}

// tailTerms sets s to the components of t under the plan by slot, that is
// in ascending feature-index order: every term that depends on the tuning
// vector, all at indices ≥ idxBx.
func (p *Plan) tailTerms(t tunespace.Vector, s *[maxTail]term) {
	place := func(slots []uint8, g group) {
		for i, sl := range slots {
			s[sl] = g[i]
		}
	}
	place(axisSlots[0], p.axisTerms(0, t.Bx))
	place(axisSlots[1], p.axisTerms(1, t.By))
	place(axisSlots[2], p.axisTerms(2, t.Bz))
	place(unrollSlots, p.unrollTerms(t.U))
	place(chunkSlots, p.chunkTerms(t.C))
	sh := p.tileShapeOf(t.Bx, t.By, t.Bz)
	place(shapeSlots, p.shapeTerms(sh))
	place(groupsSlots, p.groupsTerms(sh.groups(t.C)))
	place(innerSlots, p.innerTerms(t.Bx, t.U))
	place(fuseSlots, p.fuseTerms(sh, t.EffFuse()))
}

// negZero is the additive identity of IEEE addition: x + (−0) is x, bit for
// bit, for every x including ±0.
var negZero = math.Copysign(0, -1)

// product is a term's contribution to a dot product with w: exactly the
// product Dot adds, or −0 where Dot adds nothing — a zero value, or an index
// beyond an older, narrower model's weights (tail indices ascend, so Dot's
// scan has stopped there).
func product(tm term, w []float64) float64 {
	if tm.val == 0 || int(tm.idx) >= len(w) {
		return negZero
	}
	// The conversion forbids fusing the product into a later addition, as
	// in dotFrom.
	return float64(tm.val * w[tm.idx])
}

// entry holds one group's products for one key, in the order of the
// group's slot list.
type entry [5]float64

// cacheSize is the slot count of every memo cache.
const cacheSize = 8

// cache holds one group's products for up to cacheSize keys, one key per
// slot. The caller picks a key's slot; a key that lands in an occupied slot
// evicts the key there.
type cache[K comparable] struct {
	ok   uint8 // bit i: slot i holds keys[i]'s products
	keys [cacheSize]K
	e    [cacheSize]entry
}

// get returns the entry of key in slot i (taken modulo cacheSize) and
// whether it already holds key's products. On a miss the slot now belongs to
// key, and the caller fills the entry.
func (c *cache[K]) get(i int, key K) (*entry, bool) {
	i &= cacheSize - 1
	if c.ok&(1<<i) != 0 && c.keys[i] == key {
		return &c.e[i], true
	}
	c.ok |= 1 << i
	c.keys[i] = key
	return &c.e[i], false
}

// slotOf picks a value's cache slot from its binary exponent and leading
// mantissa bits, so powers of two and their small multiples spread over
// distinct slots.
func slotOf(v float64) int {
	b := math.Float64bits(v)
	return int(b>>52 ^ b>>47)
}

// memo is ScoreInto's per-call cache of group products. cur holds the
// current candidate's product in every tail slot. Each group's products are
// cached under exactly the values its formulas read, so a group is computed
// about once per distinct value in a set:
//
//   - each axis by its block edge, unroll by u and chunk by c, each in the
//     slot of the value's bit length (the predefined values are powers of
//     two);
//   - the inner stream by (bx, u);
//   - the shape terms by the working set and the tile count, and the
//     dispatch-group terms by the group count tiles/c: those values repeat
//     across many shapes, so slotOf hashes them;
//   - the fusion terms take no logarithm for an unfused candidate and are
//     recomputed per shape.
//
// A cached entry is used only for its exact key, so any candidate order is
// scored correctly. The memo is a plain value of a few KiB so that it lives
// on the caller's stack: a call allocates nothing and concurrent calls share
// nothing.
type memo struct {
	p   *Plan
	w   []float64
	cur [maxTail]float64
	sh  tileShape // the current candidate's

	axes          [3]cache[int]
	unroll, chunk cache[int]
	inner         cache[[2]int]
	shapes        cache[tileShape]
	groups        cache[float64]
}

// bitLen is the cache slot of an integer key.
func bitLen(v int) int { return bits.Len(uint(v)) }

// fill sets e to the products of g's terms with the memo's weights.
func (m *memo) fill(e *entry, g group) {
	for i := range g {
		e[i] = product(g[i], m.w)
	}
}

// put writes a group's products into the current slots.
func (m *memo) put(slots []uint8, e *entry) {
	for i, sl := range slots {
		m.cur[sl] = e[i]
	}
}

// load brings the current slots from candidate prev (nil for none) to
// candidate t. The predefined sets vary u and c fastest, so a candidate that
// differs from its predecessor only there rewrites those groups; any other
// change rewrites every group, each from its cache.
func (m *memo) load(t, prev *tunespace.Vector) {
	if prev == nil || t.Bx != prev.Bx || t.By != prev.By || t.Bz != prev.Bz || t.K != prev.K {
		m.loadShape(t)
		m.loadUnroll(t)
		m.loadChunk(t)
		return
	}
	if t.U != prev.U {
		m.loadUnroll(t)
	}
	if t.C != prev.C {
		m.loadChunk(t)
	}
}

// loadShape writes the groups of t's tile shape: the axes, the shape terms
// and the fusion terms.
func (m *memo) loadShape(t *tunespace.Vector) {
	p := m.p
	for a, b := range [3]int{t.Bx, t.By, t.Bz} {
		e, hit := m.axes[a].get(bitLen(b), b)
		if !hit {
			m.fill(e, p.axisTerms(a, b))
		}
		m.put(axisSlots[a], e)
	}
	m.sh = p.tileShapeOf(t.Bx, t.By, t.Bz)
	e, hit := m.shapes.get(slotOf(m.sh.ws), m.sh)
	if !hit {
		m.fill(e, p.shapeTerms(m.sh))
	}
	m.put(shapeSlots, e)
	var fe entry
	m.fill(&fe, p.fuseTerms(m.sh, t.EffFuse()))
	m.put(fuseSlots, &fe)
}

// loadUnroll writes the groups that read u: the unroll terms and the inner
// stream.
func (m *memo) loadUnroll(t *tunespace.Vector) {
	e, hit := m.unroll.get(bitLen(t.U), t.U)
	if !hit {
		m.fill(e, m.p.unrollTerms(t.U))
	}
	m.put(unrollSlots, e)
	e, hit = m.inner.get(bitLen(t.U), [2]int{t.Bx, t.U})
	if !hit {
		m.fill(e, m.p.innerTerms(t.Bx, t.U))
	}
	m.put(innerSlots, e)
}

// loadChunk writes the groups that read c: the chunk terms and the
// dispatch groups.
func (m *memo) loadChunk(t *tunespace.Vector) {
	e, hit := m.chunk.get(bitLen(t.C), t.C)
	if !hit {
		m.fill(e, m.p.chunkTerms(t.C))
	}
	m.put(chunkSlots, e)
	n := m.sh.groups(t.C)
	e, hit = m.groups.get(slotOf(n), n)
	if !hit {
		m.fill(e, m.p.groupsTerms(n))
	}
	m.put(groupsSlots, e)
}

// ScoreInto sets out[i] to Encode(q, cands[i]).Dot(w) for the plan's
// instance q, bit for bit, without building any vector. The head's partial
// sum is taken once. Each tail component is computed once per distinct
// value of the parameters it depends on (see memo) and kept as its product
// with w; a candidate's score is the head plus its products added slot by
// slot. Those are Dot's additions in Dot's order — an absent component adds
// −0, which changes no bits — so the order of the candidates, repeats, and
// how a set is split across calls cannot change any score. It allocates
// nothing. out must be at least as long as cands.
func (p *Plan) ScoreInto(out, w []float64, cands []tunespace.Vector) {
	head := p.head.dotFrom(0, w)
	m := memo{p: p, w: w}
	var prev *tunespace.Vector
	for i := range cands {
		t := &cands[i]
		m.load(t, prev)
		prev = t
		// The fusion slots come last, and an unfused candidate's are all −0.
		// Both bounds are multiples of the five-slot step below.
		n := maxTail
		if t.EffFuse() <= 1 {
			n = slotFuse
		}
		s := head
		for k := 0; k < n; k += 5 {
			r := m.cur[k : k+5 : k+5]
			s += r[0]
			s += r[1]
			s += r[2]
			s += r[3]
			s += r[4]
		}
		out[i] = s
	}
}
