package feature

import (
	"math"
	"math/bits"
	"runtime"
	"sync"

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
	wsSlots     = []uint8{slotTileWS, slotTileWS2, slotDensityWS, slotWSBin}
	tilesSlots  = []uint8{slotNumTiles}
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

// tileShape is what the groups read of a tile shape (bx, by, bz) besides
// its edges: the effective tile's working set in bytes and the number of
// tiles covering the grid. Many shapes share each value.
type tileShape struct {
	ws, tiles float64
}

// span is what a tile shape reads of one block edge: the effective tile
// extent, which never exceeds the grid, and the number of tiles covering
// the axis.
type span struct {
	ext, n float64
}

// spanOf returns the span of block edge b on axis a (0, 1, 2 for x, y, z).
func (p *Plan) spanOf(a, b int) span {
	n := [3]int{p.size.X, p.size.Y, p.size.Z}[a]
	return span{float64(min(b, n)), float64(ceilDiv(n, max(1, b)))}
}

// shapeOf returns the tile shape of the spans x, y and z.
func (p *Plan) shapeOf(x, y, z span) tileShape {
	return tileShape{ws: x.ext * y.ext * z.ext * p.bytes * p.buffers, tiles: x.n * y.n * z.n}
}

// tileShapeOf returns the tile shape of block edges (bx, by, bz).
func (p *Plan) tileShapeOf(bx, by, bz int) tileShape {
	return p.shapeOf(p.spanOf(0, bx), p.spanOf(1, by), p.spanOf(2, bz))
}

// wsTerms returns the components of a tile working set of ws bytes: the
// working set, its square, density × working set and the working set's bin.
func (p *Plan) wsTerms(ws float64) (g group) {
	l2ws := log2(ws)
	lws := l2ws / maxLogWS
	g[0] = term{idxTileWS, clamp01(lws)}
	g[1] = term{idxTileWS2, clamp01(lws * lws)}
	g[2] = term{idxDensityWS, clamp01(p.density * lws)}
	// Working-set bin: log2(WS bytes) mapped to 8 bins over [10, 26).
	g[3] = term{idxWSBin0 + int32(binIndex(l2ws, 10, 26, wsBins)), 1}
	return g
}

// tilesTerms returns the component of a grid covered by n tiles.
func (p *Plan) tilesTerms(n float64) (g group) {
	g[0] = term{idxNumTiles, clamp01(log2(n) / maxLogTiles)}
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
// a tile of working set ws. They are emitted only for genuinely fused
// vectors, so an unfused vector's encoding is byte-identical to the
// pre-fusion one.
func (p *Plan) fuseTerms(ws float64, kf int) (g group) {
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
	g[3] = term{idxFuseWS, clamp01(fu * log2(ws) / maxLogWS)}
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
	place(wsSlots, p.wsTerms(sh.ws))
	place(tilesSlots, p.tilesTerms(sh.tiles))
	place(groupsSlots, p.groupsTerms(sh.groups(t.C)))
	place(innerSlots, p.innerTerms(t.Bx, t.U))
	place(fuseSlots, p.fuseTerms(sh.ws, t.EffFuse()))
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
	// in Dot.
	return float64(tm.val * w[tm.idx])
}

// hashMul spreads a key over a table's slots by multiplicative (Fibonacci)
// hashing: a slot index is the top bits of the key's hash times 2^64/φ, and
// every bit of the hash reaches them.
const hashMul = 0x9e3779b97f4a7c15

// table is an exact-key memo of one group's products: a hash index with
// linear probing over dense arrays of the keys and their values, in the
// order the keys arrived. A value is used only for its exact key, so any
// candidate order is scored correctly. The index takes two bytes a slot,
// and the dense arrays grow with the keys a set has, so a reused table
// holds memory for the sets it has seen, not for its bound.
//
// A table holds up to three quarters of its index slots in keys. The bound
// covers the distinct keys of the predefined sets, fused or not, at every
// instance size: then each of a call's group evaluations is of a new key. A
// set with more distinct keys (only off-lattice vectors have them) empties
// the table when it is full and goes on.
type table[K comparable, V any] struct {
	index []uint16 // 0: free; else 1 + the position of the slot's key
	keys  []K
	vals  []V
	shift uint8 // 64 − log2(len(index))
}

// newTable returns an empty table of 2^logSlots index slots.
func newTable[K comparable, V any](logSlots int) table[K, V] {
	return table[K, V]{index: make([]uint16, 1<<logSlots), shift: uint8(64 - logSlots)}
}

// empty forgets every key.
func (t *table[K, V]) empty() {
	clear(t.index)
	t.keys, t.vals = t.keys[:0], t.vals[:0]
}

// get returns the value of key, whose hash is h, and whether the table held
// it. On a miss the key is added, and the caller fills its value before the
// next call. A later miss may move the dense arrays as they grow, but an
// old copy of a value is never written again, so a pointer keeps reading
// its key's products until the table is next emptied, which only a later
// miss can do.
func (t *table[K, V]) get(h uint64, key K) (*V, bool) {
	mask := uint64(len(t.index) - 1)
	i := h * hashMul >> t.shift
	for ; t.index[i] != 0; i = (i + 1) & mask {
		if j := t.index[i] - 1; t.keys[j] == key {
			return &t.vals[j], true
		}
	}
	if len(t.keys) == len(t.index)/4*3 {
		t.empty()
		i = h * hashMul >> t.shift
	}
	var zero V
	t.keys, t.vals = append(t.keys, key), append(t.vals, zero)
	t.index[i] = uint16(len(t.keys))
	return &t.vals[len(t.vals)-1], false
}

// fuseKey is what the fusion terms read: the tile's working set and the
// depth.
type fuseKey struct {
	ws float64
	k  int
}

// scorer scores candidate sets under one plan and one weight vector. It
// memoizes each group's products (its terms times w) under exactly the
// values the group's formulas read, one table per group:
//
//   - each axis by its block edge (with the edge's span, which the tile
//     shape reads), unroll by u, chunk by c and the inner stream by
//     (bx, u);
//   - the working-set terms by the tile's working set, the tile-count term
//     by the tile count and the dispatch-group terms by the group count
//     tiles/c: those values repeat across many shapes;
//   - the fusion terms by the working set and the depth.
//
// From acquire to release every group formula therefore runs once per
// distinct key of a predefined set, in any order and across any number of
// score calls. A scorer's tables grow to tens of KiB, so idle scorers wait
// in a list for reuse, not on a goroutine's stack: a call allocates nothing
// once its scorer has seen a set as large, and concurrent calls take
// different scorers.
type scorer struct {
	p *Plan
	w []float64

	axes   [3]table[int, axisEntry]
	unroll table[int, [4]float64]
	chunk  table[int, [3]float64]
	inner  table[[2]int, [2]float64]
	ws     table[float64, [4]float64]
	tiles  table[float64, [1]float64]
	groups table[float64, [3]float64]
	fuse   table[fuseKey, [5]float64]

	// byU and byC hold copies of the products of the latest (bx, u) pair
	// of each u and (tile count, c) pair of each c, at index u mod 16 and c
	// mod 16: the candidates of a run find theirs with one comparison.
	byU [16]uPair
	byC [16]cPair

	// uMax holds the largest unroll + inner-stream sum over a set of u
	// values (bit u of the key's second field) at x-edge bx, and cMax the
	// largest chunk + dispatch-group sum over a set of c values on a shape
	// of a tile count, for best.
	uMax table[[2]int, float64]
	cMax table[cSetKey, float64]
	// runs holds best's runs of one call, reused across calls.
	runs []run

	buf [chunkLen]float64 // the scores ScoreChunks hands over
}

// cSetKey is what scorer.cMax reads: a tile count and a set of c values,
// bit c set for each.
type cSetKey struct {
	tiles float64
	cs    uint32
}

// run is a maximal run of candidates [lo, hi) sharing (bx, by, bz, K), and
// an upper bound on their scores.
type run struct {
	lo, hi int
	bound  float64
}

// uPair is an entry of scorer.byU: the unroll and inner-stream products of
// (bx, u).
type uPair struct {
	bx, u  int
	unroll [4]float64
	inner  [2]float64
}

// cPair is an entry of scorer.byC: the chunk and dispatch-group products of
// chunk size c on a shape of the given tile count.
type cPair struct {
	tiles         float64
	c             int
	chunk, groups [3]float64
}

// chunkLen is the number of candidates ScoreChunks scores at a time: its
// scores stay in the L1 cache while the caller reads them.
const chunkLen = 256

// newScorer returns a scorer whose tables are bounded by the distinct keys
// of the predefined sets: at most 10 values per block edge, 4 of u and c,
// 40 inner streams, 216 working sets (each a power of two times the clipped
// extents, for 8 choices of which axes clip and at most 27 exponent sums),
// 540 tile counts, 2,160 group counts (540 tile counts over 4 chunk sizes)
// and 3 fused depths over the working sets. The unroll and chunk tables
// hold every legal value. Best keys its run maxima by (bx, u set) and
// (tile count, c set): at most 10 and 540 keys on a predefined set in its
// order.
func newScorer() *scorer {
	s := &scorer{
		unroll: newTable[int, [4]float64](5),
		chunk:  newTable[int, [3]float64](5),
		inner:  newTable[[2]int, [2]float64](7),
		ws:     newTable[float64, [4]float64](9),
		tiles:  newTable[float64, [1]float64](10),
		groups: newTable[float64, [3]float64](12),
		fuse:   newTable[fuseKey, [5]float64](10),
		uMax:   newTable[[2]int, float64](7),
		cMax:   newTable[cSetKey, float64](10),
	}
	for a := range s.axes {
		s.axes[a] = newTable[int, axisEntry](5)
	}
	return s
}

// scorers holds idle scorers, at most GOMAXPROCS of them: no more can
// score at once. A scorer released to a full list is left to the
// collector. Unlike a sync.Pool, the list outlives garbage collections, so
// a steady caller keeps reusing a scorer whose tables have grown to its
// sets, and reuse does not depend on the scheduler or on the race
// detector, which makes a sync.Pool drop items at random.
var scorers struct {
	sync.Mutex
	idle []*scorer
}

// acquire returns an idle scorer, or a new one, bound to plan p and
// weights w, with every table empty.
func acquire(p *Plan, w []float64) *scorer {
	var s *scorer
	scorers.Lock()
	if n := len(scorers.idle); n > 0 {
		s = scorers.idle[n-1]
		scorers.idle = scorers.idle[:n-1]
	}
	scorers.Unlock()
	if s == nil {
		s = newScorer()
	}
	s.p, s.w = p, w
	for a := range s.axes {
		s.axes[a].empty()
	}
	s.unroll.empty()
	s.chunk.empty()
	s.inner.empty()
	s.ws.empty()
	s.tiles.empty()
	s.groups.empty()
	s.fuse.empty()
	s.uMax.empty()
	s.cMax.empty()
	for i := range s.byU {
		// Keys no candidate has.
		s.byU[i] = uPair{u: math.MinInt}
		s.byC[i] = cPair{tiles: math.NaN(), c: math.MinInt}
	}
	return s
}

// release returns s to the idle list.
func (s *scorer) release() {
	s.p, s.w = nil, nil
	scorers.Lock()
	if len(scorers.idle) < runtime.GOMAXPROCS(0) {
		scorers.idle = append(scorers.idle, s)
	}
	scorers.Unlock()
}

// fill sets dst to the products of g's first len(dst) terms with the
// scorer's weights.
func (s *scorer) fill(dst []float64, g group) {
	for i := range dst {
		dst[i] = product(g[i], s.w)
	}
}

// axisEntry is what the scorer keeps of a block edge on one axis: the
// products of its terms and its span.
type axisEntry struct {
	prod [5]float64
	span span
}

// axisOf returns the products and the span of block edge b on axis a.
func (s *scorer) axisOf(a, b int) *axisEntry {
	e, hit := s.axes[a].get(uint64(b), b)
	if !hit {
		s.fill(e.prod[:], s.p.axisTerms(a, b))
		e.span = s.p.spanOf(a, b)
	}
	return e
}

// unrollOf returns the products of unroll factor u.
func (s *scorer) unrollOf(u int) *[4]float64 {
	e, hit := s.unroll.get(uint64(u), u)
	if !hit {
		s.fill(e[:], s.p.unrollTerms(u))
	}
	return e
}

// chunkOf returns the products of chunk size c.
func (s *scorer) chunkOf(c int) *[3]float64 {
	e, hit := s.chunk.get(uint64(c), c)
	if !hit {
		s.fill(e[:], s.p.chunkTerms(c))
	}
	return e
}

// innerOf returns the products of the inner stream of x-edge bx and unroll
// factor u.
func (s *scorer) innerOf(bx, u int) *[2]float64 {
	e, hit := s.inner.get(uint64(bx)<<32^uint64(u), [2]int{bx, u})
	if !hit {
		s.fill(e[:], s.p.innerTerms(bx, u))
	}
	return e
}

// wsOf returns the products of a tile working set of ws bytes.
func (s *scorer) wsOf(ws float64) *[4]float64 {
	e, hit := s.ws.get(math.Float64bits(ws), ws)
	if !hit {
		s.fill(e[:], s.p.wsTerms(ws))
	}
	return e
}

// tilesOf returns the product of a grid covered by n tiles.
func (s *scorer) tilesOf(n float64) *[1]float64 {
	e, hit := s.tiles.get(math.Float64bits(n), n)
	if !hit {
		s.fill(e[:], s.p.tilesTerms(n))
	}
	return e
}

// groupsOf returns the products of n dispatch groups.
func (s *scorer) groupsOf(n float64) *[3]float64 {
	e, hit := s.groups.get(math.Float64bits(n), n)
	if !hit {
		s.fill(e[:], s.p.groupsTerms(n))
	}
	return e
}

// fillU sets pu to the products of x-edge bx and unroll factor u. The
// unroll products it holds stay if u does.
func (s *scorer) fillU(pu *uPair, bx, u int) {
	if pu.u != u {
		pu.u, pu.unroll = u, *s.unrollOf(u)
	}
	pu.bx, pu.inner = bx, *s.innerOf(bx, u)
}

// fillC sets pc to the products of chunk size c on a tile shape of the
// given tile count. The chunk products it holds stay if c does.
func (s *scorer) fillC(pc *cPair, tiles float64, c int) {
	if pc.c != c {
		pc.c, pc.chunk = c, *s.chunkOf(c)
	}
	pc.tiles, pc.groups = tiles, *s.groupsOf(tileShape{tiles: tiles}.groups(c))
}

// fuseOf returns the fusion products of depth k on a tile of working set
// ws.
func (s *scorer) fuseOf(ws float64, k int) *[5]float64 {
	e, hit := s.fuse.get(math.Float64bits(ws)^uint64(k), fuseKey{ws, k})
	if !hit {
		s.fill(e[:], s.p.fuseTerms(ws, k))
	}
	return e
}

// ScoreInto sets out[i] to Encode(q, cands[i]).Dot(w) for the plan's
// instance q, bit for bit, without building any vector: each group's
// products with w are computed once per distinct value of what the group
// reads (see scorer). Any order of the candidates, repeats, and any split of
// a set across calls give the same scores. out must be at least as long as
// cands. It takes its scorer from the idle list, so in steady state it
// allocates nothing.
func (p *Plan) ScoreInto(out, w []float64, cands []tunespace.Vector) {
	s := acquire(p, w)
	s.score(out, cands)
	s.release()
}

// ScoreChunks scores cands under w as ScoreInto does, chunkLen candidates
// at a time, and hands each chunk's scores to yield together with the index
// of the chunk's first candidate, in order. The scores slice is reused for
// the next chunk, so a caller that selects the best candidates while
// streaming never holds a score per candidate. The chunks share one
// scorer: each group formula runs once per distinct key of the whole set.
// In steady state it allocates nothing.
func (p *Plan) ScoreChunks(w []float64, cands []tunespace.Vector, yield func(first int, scores []float64)) {
	s := acquire(p, w)
	s.chunks(cands, yield)
	s.release()
}

// chunks is ScoreChunks on a bound scorer.
func (s *scorer) chunks(cands []tunespace.Vector, yield func(first int, scores []float64)) {
	for lo := 0; lo < len(cands); lo += chunkLen {
		out := s.buf[:min(chunkLen, len(cands)-lo)]
		s.score(out, cands[lo:lo+len(out)])
		yield(lo, out)
	}
}

// score sets out[i] to the score of cands[i]: each component's product with
// w, added in slot order to a sum that starts at +0. It is the one copy of
// those additions.
//
// A candidate reads its products where the tables keep them; nothing is
// copied per candidate. The groups that read only the tile shape and depth
// (the axes, the working set, the tile count and the fusion terms) are
// looked up once per run of candidates sharing (bx, by, bz, K), and every
// candidate of the run reads them. A candidate looks up the groups of its
// own u and c only where they differ from its predecessor's (the predefined
// sets vary c fastest), and finds them in byU and byC with one comparison
// when its run has met its u or c before. Each candidate then adds its
// products slot by slot: Dot's additions in Dot's order (an absent component
// adds −0, which changes no bits), so the order of the candidates, repeats,
// and how a set is split across calls cannot change any score.
// TestPlanScoreBitIdenticalToEncodeDot pins the additions below against the
// slot order. The loop scores one candidate at a time: scoring four side by
// side, one accumulator each, measured slower, because an out-of-order core
// already overlaps the independent sums of consecutive candidates and the
// lanes' extra pointers cost loads.
func (s *scorer) score(out []float64, cands []tunespace.Vector) {
	out = out[:len(cands)]
	var (
		sh            tileShape
		ax, ay, az    *axisEntry
		fuse          *[5]float64
		unroll, ws    *[4]float64
		tiles         *[1]float64
		chunk, groups *[3]float64
		inner         *[2]float64
		prev          *tunespace.Vector
	)
	for i := range cands {
		t := &cands[i]
		first := prev == nil
		newShape := first || t.Bx != prev.Bx || t.By != prev.By || t.Bz != prev.Bz || t.K != prev.K
		if newShape {
			if first || t.Bx != prev.Bx {
				ax = s.axisOf(0, t.Bx)
			}
			if first || t.By != prev.By {
				ay = s.axisOf(1, t.By)
			}
			if first || t.Bz != prev.Bz {
				az = s.axisOf(2, t.Bz)
			}
			sh = s.p.shapeOf(ax.span, ay.span, az.span)
			ws, tiles = s.wsOf(sh.ws), s.tilesOf(sh.tiles)
			// An unfused candidate adds no fusion products.
			if t.K > 1 {
				fuse = s.fuseOf(sh.ws, t.K)
			}
		}
		if first || t.U != prev.U || t.Bx != prev.Bx {
			pu := &s.byU[t.U&15]
			if pu.bx != t.Bx || pu.u != t.U {
				s.fillU(pu, t.Bx, t.U)
			}
			unroll, inner = &pu.unroll, &pu.inner
		}
		if newShape || t.C != prev.C {
			pc := &s.byC[t.C&15]
			if pc.tiles != sh.tiles || pc.c != t.C {
				s.fillC(pc, sh.tiles, t.C)
			}
			chunk, groups = &pc.chunk, &pc.groups
		}
		prev = t

		// Each product is its group's term at that position of the group's
		// slot list; the comments name the slots.
		var v float64   // +0, as Dot's sum starts
		v += ax.prod[0] // slotBx
		v += ay.prod[0] // slotBy
		v += az.prod[0] // slotBz
		v += unroll[0]  // slotUnroll
		v += chunk[0]   // slotChunk
		v += ax.prod[1] // slotBx2
		v += ay.prod[1] // slotBy2
		v += az.prod[1] // slotBz2
		v += unroll[1]  // slotUnroll2
		v += chunk[1]   // slotChunk2
		v += ws[0]      // slotTileWS
		v += ws[1]      // slotTileWS2
		v += ax.prod[2] // slotFracX
		v += ay.prod[2] // slotFracY
		v += az.prod[2] // slotFracZ
		v += tiles[0]   // slotNumTiles
		v += groups[0]  // slotTileGroups
		v += groups[1]  // slotTileGroups2
		v += unroll[2]  // slotUnrollDensity
		v += inner[0]   // slotInnerStream
		v += inner[1]   // slotInnerStream2
		v += ax.prod[4] // slotDTypeBx
		v += ws[2]      // slotDensityWS
		v += ws[3]      // slotWSBin
		v += ax.prod[3] // slotBxBin
		v += ay.prod[3] // slotByBin
		v += az.prod[3] // slotBzBin
		v += unroll[3]  // slotUnrollBin
		v += chunk[2]   // slotChunkBin
		v += groups[2]  // slotBalanceBin
		if t.K > 1 {
			v += fuse[0] // slotFuse
			v += fuse[1] // slotFuse2
			v += fuse[2] // slotFuseDensity
			v += fuse[3] // slotFuseWS
			v += fuse[4] // slotFuseBin
		}
		out[i] = v
	}
}

// Best returns the index of the highest of the scores ScoreInto gives cands
// under w, the first one on a tie, or −1 when no score is a number above
// −Inf: svmrank.ArgMax of those scores. It scores exactly only the
// candidates that can still win (see scorer.best). In steady state it
// allocates nothing.
func (p *Plan) Best(w []float64, cands []tunespace.Vector) int {
	s := acquire(p, w)
	i, _ := s.best(cands)
	s.release()
	return i
}

// boundSlack is the margin a run's bound adds per unit of Σ|w|, so that the
// rounding of two sums cannot put a score above its run's bound.
//
// Every term value lies in [0, 1] and a candidate reads each feature index
// at most once, so a candidate's products, and the products a bound adds
// (a shape's, one u's and one c's), sum in magnitude to at most Σ|w|.
// Recursive summation of n terms in any order errs by at most
// (n−1)·2⁻⁵³·Σ|terms| to first order (Higham, Accuracy and Stability of
// Numerical Algorithms, §4.2). A score adds at most 35 products and a bound
// at most 37 and its margin, so each lands within 40·2⁻⁵³·Σ|w| of its exact
// sum, and an exact score never exceeds its run's exact bound. A computed
// score therefore exceeds the computed bound without margin by less than
// 80·2⁻⁵³·Σ|w| ≈ 8.9e-15·Σ|w|, which 1e-13·Σ|w| covers more than ten times
// over.
const boundSlack = 1e-13

// best is Plan.Best on a bound scorer; it also returns how many candidates
// it scored exactly. It runs two passes.
//
// The bound pass walks the maximal runs of equal (bx, by, bz, K), the runs
// score looks the shape groups up once for. A candidate's score is the
// sum of its shape's products (the axes, the working set, the tile count
// and the fusion terms), its (bx, u) products (unroll and inner stream) and
// its (tile count, c) products (chunk and dispatch groups). So no candidate
// of a run scores above the shape's sum plus the largest (bx, u) sum over
// the run's u values plus the largest (tile count, c) sum over its c
// values, plus boundSlack·Σ|w| for rounding. On the predefined sets, full
// products of shapes × u × c, the bound is the run's best score up to that
// margin. Weights whose Σ|w| overflows or is NaN make every bound Inf or
// NaN, which is never pruned, so such a model scores every candidate. So
// does a run with a u or c outside [0, 32), and a run of one candidate:
// its bound would cost the lookups its score does.
//
// The exact pass scores the run of the highest bound first, through score,
// and then, in index order, every other run whose bound is not below the
// best score so far, adjacent runs in one call: a pruned run's scores are
// all below that score, so none of them can win or tie. A higher score
// wins, or an equal one at a lower index, as ArgMax keeps the first of
// equal scores.
func (s *scorer) best(cands []tunespace.Vector) (best, scored int) {
	var abs float64
	for _, x := range s.w {
		abs += math.Abs(x)
	}
	s.bounds(cands, boundSlack*abs)
	if len(s.runs) == 0 {
		return -1, 0
	}
	first := 0
	for i, r := range s.runs {
		if r.bound > s.runs[first].bound {
			first = i
		}
	}
	top := math.Inf(-1)
	best = -1
	exact := func(lo, hi int) {
		scored += hi - lo
		for ; lo < hi; lo += chunkLen {
			out := s.buf[:min(chunkLen, hi-lo)]
			s.score(out, cands[lo:lo+len(out)])
			for j, v := range out {
				if v > top || v == top && lo+j < best {
					best, top = lo+j, v
				}
			}
		}
	}
	exact(s.runs[first].lo, s.runs[first].hi)
	lo := -1 // the first candidate of the runs waiting to be scored
	for i, r := range s.runs {
		if i == first || r.bound < top {
			if lo >= 0 {
				exact(lo, r.lo)
				lo = -1
			}
		} else if lo < 0 {
			lo = r.lo
		}
	}
	if lo >= 0 {
		exact(lo, len(cands))
	}
	return best, scored
}

// bounds sets s.runs to the runs of cands and their bounds (see best),
// each with margin added. Adjacent runs of bound +Inf share one entry.
func (s *scorer) bounds(cands []tunespace.Vector, margin float64) {
	runs := s.runs[:0]
	var (
		ax, ay, az *axisEntry
		prev       *tunespace.Vector
	)
	inf := math.Inf(1)
	for lo := 0; lo < len(cands); {
		// The run's u and c values, bit u of us and bit c of cs; or is
		// their bitwise or, which is below 32 only if all are in [0, 32).
		t := &cands[lo]
		us, cs, or := uint32(1)<<(t.U&31), uint32(1)<<(t.C&31), t.U|t.C
		hi := lo + 1
		for ; hi < len(cands); hi++ {
			v := &cands[hi]
			if v.Bx != t.Bx || v.By != t.By || v.Bz != t.Bz || v.K != t.K {
				break
			}
			us |= 1 << (v.U & 31)
			cs |= 1 << (v.C & 31)
			or |= v.U | v.C
		}
		// A run of one candidate, or with a u or c outside [0, 32), is
		// left unbounded.
		bound := inf
		if hi-lo > 1 && uint(or) < 32 {
			if prev == nil || t.Bx != prev.Bx {
				ax = s.axisOf(0, t.Bx)
			}
			if prev == nil || t.By != prev.By {
				ay = s.axisOf(1, t.By)
			}
			if prev == nil || t.Bz != prev.Bz {
				az = s.axisOf(2, t.Bz)
			}
			prev = t
			sh := s.p.shapeOf(ax.span, ay.span, az.span)
			bound = sum(ax.prod[:]) + sum(ay.prod[:]) + sum(az.prod[:]) + sum(s.wsOf(sh.ws)[:]) + s.tilesOf(sh.tiles)[0] +
				s.uMaxOf(t.Bx, us) + s.cMaxOf(sh.tiles, cs) + margin
			if t.K > 1 {
				bound += sum(s.fuseOf(sh.ws, t.K)[:])
			}
		}
		if n := len(runs); bound == inf && n > 0 && runs[n-1].bound == inf {
			// Neither can be pruned: one entry scores both.
			runs[n-1].hi = hi
		} else {
			runs = append(runs, run{lo, hi, bound})
		}
		lo = hi
	}
	s.runs = runs
}

// uMaxOf returns the largest unroll + inner-stream sum at x-edge bx over
// the u values of set us, or −Inf for an empty set.
func (s *scorer) uMaxOf(bx int, us uint32) float64 {
	e, hit := s.uMax.get(uint64(bx)<<32^uint64(us), [2]int{bx, int(us)})
	if !hit {
		*e = math.Inf(-1)
		for b := us; b != 0; b &= b - 1 {
			u := bits.TrailingZeros32(b)
			if v := sum(s.unrollOf(u)[:]) + sum(s.innerOf(bx, u)[:]); v > *e {
				*e = v
			}
		}
	}
	return *e
}

// cMaxOf returns the largest chunk + dispatch-group sum on a shape of the
// given tile count over the c values of set cs, or −Inf for an empty set.
func (s *scorer) cMaxOf(tiles float64, cs uint32) float64 {
	e, hit := s.cMax.get(math.Float64bits(tiles)^uint64(cs)<<40, cSetKey{tiles, cs})
	if !hit {
		*e = math.Inf(-1)
		for b := cs; b != 0; b &= b - 1 {
			c := bits.TrailingZeros32(b)
			if v := sum(s.chunkOf(c)[:]) + sum(s.groupsOf(tileShape{tiles: tiles}.groups(c))[:]); v > *e {
				*e = v
			}
		}
	}
	return *e
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	var v float64
	for _, x := range xs {
		v += x
	}
	return v
}
