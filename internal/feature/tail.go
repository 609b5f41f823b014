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

// cache holds values for up to cacheSize keys, one key per slot. The caller
// picks a key's slot; a key that lands in an occupied slot evicts the key
// there, so a pointer into the cache stays valid until the next miss.
type cache[K comparable, V any] struct {
	ok   uint8 // bit i: slot i holds keys[i]'s value
	keys [cacheSize]K
	e    [cacheSize]V
}

// get returns the value of key in slot i (taken modulo cacheSize) and
// whether it already holds key's value. On a miss the slot now belongs to
// key, and the caller fills the value.
func (c *cache[K, V]) get(i int, key K) (*V, bool) {
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

// chunkKey is what the groups that read c read: c and the tile count of
// the candidate's shape.
type chunkKey struct {
	tiles float64
	c     int
}

// chunkEntry holds the products of the chunk terms and the dispatch-group
// terms of one chunkKey.
type chunkEntry struct{ chunk, groups entry }

// memo is ScoreInto's per-call cache of group products. Each group's
// products are cached under exactly the values its formulas read, so a group
// is computed about once per distinct value in a set:
//
//   - each axis by its block edge, unroll by u and chunk by c, each in the
//     slot of the value's bit length (the predefined values are powers of
//     two);
//   - the inner stream by (bx, u);
//   - the shape terms by the working set and the tile count, and the
//     dispatch-group terms by the group count tiles/c: those values repeat
//     across many shapes, so slotOf hashes them;
//   - the chunk and dispatch-group products of a candidate together by
//     (tiles, c), so that the candidates of one shape find theirs with one
//     lookup and no division;
//   - the fusion terms take no logarithm and are recomputed per fused shape.
//
// A cached value is used only for its exact key, so any candidate order is
// scored correctly. The memo is a plain value of a few KiB so that it lives
// on the caller's stack: a call allocates nothing and concurrent calls share
// nothing.
type memo struct {
	p    *Plan
	w    []float64
	fuse entry // the current shape's fusion products

	axes          [3]cache[int, entry]
	unroll, chunk cache[int, entry]
	inner         cache[[2]int, entry]
	shapes        cache[tileShape, entry]
	groups        cache[float64, entry]
	byChunk       cache[chunkKey, chunkEntry]
}

// bitLen is the cache slot of an integer key.
func bitLen(v int) int { return bits.Len(uint(v)) }

// fill sets e to the products of g's terms with the memo's weights.
func (m *memo) fill(e *entry, g group) {
	for i := range g {
		e[i] = product(g[i], m.w)
	}
}

// axisOf returns the products of block edge b on axis a.
func (m *memo) axisOf(a, b int) *entry {
	e, hit := m.axes[a].get(bitLen(b), b)
	if !hit {
		m.fill(e, m.p.axisTerms(a, b))
	}
	return e
}

// shapeOf returns the products of tile shape sh.
func (m *memo) shapeOf(sh tileShape) *entry {
	e, hit := m.shapes.get(slotOf(sh.ws), sh)
	if !hit {
		m.fill(e, m.p.shapeTerms(sh))
	}
	return e
}

// unrollOf returns the products of unroll factor u.
func (m *memo) unrollOf(u int) *entry {
	e, hit := m.unroll.get(bitLen(u), u)
	if !hit {
		m.fill(e, m.p.unrollTerms(u))
	}
	return e
}

// innerOf returns the products of the inner stream of x-edge bx and unroll
// factor u.
func (m *memo) innerOf(bx, u int) *entry {
	e, hit := m.inner.get(bitLen(u)^bitLen(bx)<<1, [2]int{bx, u})
	if !hit {
		m.fill(e, m.p.innerTerms(bx, u))
	}
	return e
}

// fillChunk sets ce to the chunk and dispatch-group products of chunk size
// c on tile shape sh.
func (m *memo) fillChunk(ce *chunkEntry, sh tileShape, c int) {
	e, hit := m.chunk.get(bitLen(c), c)
	if !hit {
		m.fill(e, m.p.chunkTerms(c))
	}
	ce.chunk = *e
	n := sh.groups(c)
	e, hit = m.groups.get(slotOf(n), n)
	if !hit {
		m.fill(e, m.p.groupsTerms(n))
	}
	ce.groups = *e
}

// ScoreInto sets out[i] to Encode(q, cands[i]).Dot(w) for the plan's
// instance q, bit for bit, without building any vector. The head's partial
// sum is taken once. Each tail component is computed once per distinct
// value of the parameters it depends on (see memo) and kept as its product
// with w.
//
// A candidate reads its products where the memo keeps them; nothing is
// copied per candidate. The groups that read only the tile shape and depth
// (the axes, the shape terms and the fusion terms) are looked up once per
// run of candidates sharing (bx, by, bz, K), and every candidate of the run
// reads them. A candidate looks up the groups of its own u and c only where
// they differ from its predecessor's: the predefined sets vary c fastest,
// so most candidates make one lookup, of their (tiles, c) pair. Each
// candidate then adds the head and its products slot by slot: Dot's
// additions in Dot's order (an absent component adds −0, which changes no
// bits), so the order of the candidates, repeats, and how a set is split
// across calls cannot change any score. TestPlanScoreBitIdenticalToEncodeDot
// pins the additions below against the slot order. The loop scores one
// candidate at a time: scoring four side by side, one accumulator each,
// measured slower, because an out-of-order core already overlaps the
// independent sums of consecutive candidates and the lanes' extra pointers
// cost loads. It allocates nothing. out must be at least as long as cands.
func (p *Plan) ScoreInto(out, w []float64, cands []tunespace.Vector) {
	out = out[:len(cands)]
	head := p.head.dotFrom(0, w)
	m := memo{p: p, w: w}
	var (
		sh                                     tileShape
		ax, ay, az, shape, fuse, unroll, inner *entry
		chunk, groups                          *entry
		prev                                   *tunespace.Vector
	)
	for i := range cands {
		t := &cands[i]
		first := prev == nil
		newShape := first || t.Bx != prev.Bx || t.By != prev.By || t.Bz != prev.Bz || t.K != prev.K
		if newShape {
			if first || t.Bx != prev.Bx {
				ax = m.axisOf(0, t.Bx)
			}
			if first || t.By != prev.By {
				ay = m.axisOf(1, t.By)
			}
			if first || t.Bz != prev.Bz {
				az = m.axisOf(2, t.Bz)
			}
			sh = p.tileShapeOf(t.Bx, t.By, t.Bz)
			shape = m.shapeOf(sh)
			// An unfused candidate adds no fusion products.
			if t.K > 1 {
				m.fill(&m.fuse, p.fuseTerms(sh, t.K))
				fuse = &m.fuse
			}
		}
		if first || t.U != prev.U {
			unroll = m.unrollOf(t.U)
		}
		if first || t.U != prev.U || t.Bx != prev.Bx {
			inner = m.innerOf(t.Bx, t.U)
		}
		if newShape || t.C != prev.C {
			ce, hit := m.byChunk.get(bitLen(t.C), chunkKey{sh.tiles, t.C})
			if !hit {
				m.fillChunk(ce, sh, t.C)
			}
			chunk, groups = &ce.chunk, &ce.groups
		}
		prev = t

		// Each product is its group's term at that position of the group's
		// slot list; the comments name the slots.
		s := head
		s += ax[0]     // slotBx
		s += ay[0]     // slotBy
		s += az[0]     // slotBz
		s += unroll[0] // slotUnroll
		s += chunk[0]  // slotChunk
		s += ax[1]     // slotBx2
		s += ay[1]     // slotBy2
		s += az[1]     // slotBz2
		s += unroll[1] // slotUnroll2
		s += chunk[1]  // slotChunk2
		s += shape[0]  // slotTileWS
		s += shape[1]  // slotTileWS2
		s += ax[2]     // slotFracX
		s += ay[2]     // slotFracY
		s += az[2]     // slotFracZ
		s += shape[2]  // slotNumTiles
		s += groups[0] // slotTileGroups
		s += groups[1] // slotTileGroups2
		s += unroll[2] // slotUnrollDensity
		s += inner[0]  // slotInnerStream
		s += inner[1]  // slotInnerStream2
		s += ax[4]     // slotDTypeBx
		s += shape[3]  // slotDensityWS
		s += shape[4]  // slotWSBin
		s += ax[3]     // slotBxBin
		s += ay[3]     // slotByBin
		s += az[3]     // slotBzBin
		s += unroll[3] // slotUnrollBin
		s += chunk[2]  // slotChunkBin
		s += groups[2] // slotBalanceBin
		if t.K > 1 {
			s += fuse[0] // slotFuse
			s += fuse[1] // slotFuse2
			s += fuse[2] // slotFuseDensity
			s += fuse[3] // slotFuseWS
			s += fuse[4] // slotFuseBin
		}
		out[i] = s
	}
}
