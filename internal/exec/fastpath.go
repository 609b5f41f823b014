package exec

import "repro/internal/grid"

// Fast paths: fully specialized inner loops for the most common stencil
// shapes. The generic runRow* loops iterate over a term table; for hot
// kernels like the 7-point laplacian that indirection dominates, so both
// engines dispatch to a shape-specialized body when one matches. The
// specialization is detected structurally (offsets and weights), never by
// name, so DSL-defined kernels benefit too.
//
// Detection happens at compile time and is data-independent: the fastPlan
// carries only weights and flat-index offsets, and callers pass the source
// data with every row. There is one body per shape, shared by single-step
// Programs and FusedPrograms: each takes its stream-axis sources as separate
// slices and adds the compiled off entry to every tap. A Program passes its
// contiguous input grid for every source and compiles full flat offsets; a
// FusedProgram passes the level below's planes and compiles in-plane offsets
// (the stream-axis displacement removed), so both read the same elements.
//
// Summation order: each specialized body accumulates terms in the canonical
// order of its offset table below. When a kernel lists its terms in that
// same order — which the benchmark constructors and shape.Points-derived
// kernels do — the fast path is bit-for-bit identical to Reference;
// otherwise it differs only by floating-point reassociation (≈1 ulp).
type fastKind int

const (
	fastNone fastKind = iota
	// fastStar7 is the 3-D 7-point star: centre + 6 axis neighbours,
	// arbitrary weights, single buffer.
	fastStar7
	// fastRow3 is the 1-D 3-point row stencil (x-1, x, x+1), single buffer.
	fastRow3
	// fastStar5 is the 2-D 5-point star: centre + 4 in-plane axis
	// neighbours, single buffer.
	fastStar5
	// fastBox9 is the 2-D 9-point box: the full 3×3 neighbourhood with
	// arbitrary weights, single buffer (edge detection, game-of-life).
	fastBox9
	// fastBox27 is the 3-D 27-point box: the full 3×3×3 neighbourhood with
	// arbitrary weights, single buffer.
	fastBox27
)

// Canonical offset tables. Star kernels keep the historical centre-first
// order (matching the hand-written benchmark constructors); box kernels use
// shape.Points' canonical (z, y, x) order, grouped into x-contiguous rows of
// three so the bodies can walk each row with unit stride.
var (
	row3Offsets  = [][3]int{{0, 0, 0}, {1, 0, 0}, {-1, 0, 0}}
	star5Offsets = [][3]int{{0, 0, 0}, {1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}}
	star7Offsets = [][3]int{
		{0, 0, 0}, {1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
	}
	box9Offsets  = boxOffsets(0)
	box27Offsets = boxOffsets(1)
)

// boxOffsets enumerates the unit box neighbourhood in canonical (z, y, x)
// order; zr is the z radius (0 for the 2-D box).
func boxOffsets(zr int) [][3]int {
	var out [][3]int
	for z := -zr; z <= zr; z++ {
		for y := -1; y <= 1; y++ {
			for x := -1; x <= 1; x++ {
				out = append(out, [3]int{x, y, z})
			}
		}
	}
	return out
}

// fastPlan holds the precomputed weights and offsets of a specialized
// kernel, indexed by the slot order of the kind's canonical offset table.
type fastPlan[T grid.Float] struct {
	kind fastKind
	w    [27]T
	off  [27]int
}

// detectFast inspects a kernel's term plan and returns a specialization when
// it matches one of the known shapes exactly. Only weights and index offsets
// are captured.
func detectFast[T grid.Float](k *LinearKernel, p *plan[T]) *fastPlan[T] {
	if k.Buffers != 1 {
		return nil
	}
	switch len(k.Terms) {
	case 3:
		return matchTerms(k, p, fastRow3, row3Offsets)
	case 5:
		return matchTerms(k, p, fastStar5, star5Offsets)
	case 7:
		return matchTerms(k, p, fastStar7, star7Offsets)
	case 9:
		return matchTerms(k, p, fastBox9, box9Offsets)
	case 27:
		return matchTerms(k, p, fastBox27, box27Offsets)
	}
	return nil
}

// matchTerms fills a fastPlan slot-by-slot from the wanted offset table. It
// requires the kernel's term count to equal the table size and every wanted
// offset to appear among the terms; a kernel with a duplicated offset then
// necessarily misses another wanted one and falls back to the generic path.
func matchTerms[T grid.Float](k *LinearKernel, p *plan[T], kind fastKind, want [][3]int) *fastPlan[T] {
	if len(k.Terms) != len(want) {
		return nil
	}
	fp := &fastPlan[T]{kind: kind}
	for slot, w := range want {
		found := false
		for ti, t := range k.Terms {
			if t.Offset.X == w[0] && t.Offset.Y == w[1] && t.Offset.Z == w[2] {
				fp.w[slot] = p.weight[ti]
				fp.off[slot] = p.idxOff[ti]
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	return fp
}

// row computes one row through the kind's specialized body. src holds the
// sources one stream-axis step below, at and above the row (z for 3-D
// sweeps, y for 2-D ones). A single-step program passes its contiguous input
// grid as all three, because its compiled offsets already span the stream
// axis; a fused program passes the level below's planes, and its compiled
// offsets are in-plane. This is the one kind dispatch shared by
// runSpansFast, runTileFast and FusedProgram.runRow. The sources travel as
// one pointer so a call's arguments fit in registers.
func (fp *fastPlan[T]) row(dst []T, src *[3][]T, base, n, unroll int) {
	switch fp.kind {
	case fastStar7:
		fp.star7(dst, src, base, n, unroll)
	case fastStar5:
		fp.star5(dst, src, base, n, unroll)
	case fastRow3:
		fp.row3(dst, src[1], base, n, unroll)
	case fastBox9:
		fp.box(dst, src, base, n, 3, unroll)
	case fastBox27:
		fp.box(dst, src, base, n, 9, unroll)
	}
}

// tap returns the exactly-n window of s read by canonical slot for the row
// starting at base.
func (fp *fastPlan[T]) tap(s []T, slot, base, n int) []T {
	j := base + fp.off[slot]
	return s[j : j+n]
}

// star7 computes one row of the 7-point star: the centre and x and y
// neighbours from src[1], the z neighbours from src[2] (z+1) and src[0]
// (z-1). The unroll parameter selects the blocked body width like the
// generic path. Each tap is re-sliced to an exactly-n window so every access inside the
// loop is s[x] with x < len(s): the compiler proves the bounds once per row
// instead of checking seven loads per point, which is worth ~1.6x on the
// compute-bound interior.
func (fp *fastPlan[T]) star7(dst []T, src *[3][]T, base, n, unroll int) {
	wc, wxp, wxm, wyp, wym, wzp, wzm := fp.w[0], fp.w[1], fp.w[2], fp.w[3], fp.w[4], fp.w[5], fp.w[6]
	d := dst[base : base+n]
	c := fp.tap(src[1], 0, base, n)
	xp := fp.tap(src[1], 1, base, n)
	xm := fp.tap(src[1], 2, base, n)
	yp := fp.tap(src[1], 3, base, n)
	ym := fp.tap(src[1], 4, base, n)
	zp := fp.tap(src[2], 5, base, n)
	zm := fp.tap(src[0], 6, base, n)
	x := 0
	if unroll >= 2 {
		for ; x+2 <= n; x += 2 {
			d[x] = wc*c[x] + wxp*xp[x] + wxm*xm[x] +
				wyp*yp[x] + wym*ym[x] + wzp*zp[x] + wzm*zm[x]
			j := x + 1
			d[j] = wc*c[j] + wxp*xp[j] + wxm*xm[j] +
				wyp*yp[j] + wym*ym[j] + wzp*zp[j] + wzm*zm[j]
		}
	}
	for ; x < n; x++ {
		d[x] = wc*c[x] + wxp*xp[x] + wxm*xm[x] +
			wyp*yp[x] + wym*ym[x] + wzp*zp[x] + wzm*zm[x]
	}
}

// star5 computes one row of the 2-D 5-point star: the centre and x
// neighbours from src[1], the y neighbours from src[2] (y+1) and src[0]
// (y-1).
func (fp *fastPlan[T]) star5(dst []T, src *[3][]T, base, n, unroll int) {
	wc, wxp, wxm, wyp, wym := fp.w[0], fp.w[1], fp.w[2], fp.w[3], fp.w[4]
	d := dst[base : base+n]
	c := fp.tap(src[1], 0, base, n)
	xp := fp.tap(src[1], 1, base, n)
	xm := fp.tap(src[1], 2, base, n)
	yp := fp.tap(src[2], 3, base, n)
	ym := fp.tap(src[0], 4, base, n)
	x := 0
	if unroll >= 2 {
		for ; x+2 <= n; x += 2 {
			d[x] = wc*c[x] + wxp*xp[x] + wxm*xm[x] + wyp*yp[x] + wym*ym[x]
			j := x + 1
			d[j] = wc*c[j] + wxp*xp[j] + wxm*xm[j] + wyp*yp[j] + wym*ym[j]
		}
	}
	for ; x < n; x++ {
		d[x] = wc*c[x] + wxp*xp[x] + wxm*xm[x] + wyp*yp[x] + wym*ym[x]
	}
}

// row3 computes one row of the 3-point x stencil; its stream radius is zero,
// so the row's own source s0 is its only one.
func (fp *fastPlan[T]) row3(dst, s0 []T, base, n, unroll int) {
	wc, wxp, wxm := fp.w[0], fp.w[1], fp.w[2]
	d := dst[base : base+n]
	c := fp.tap(s0, 0, base, n)
	xp := fp.tap(s0, 1, base, n)
	xm := fp.tap(s0, 2, base, n)
	x := 0
	if unroll >= 2 {
		for ; x+2 <= n; x += 2 {
			d[x] = wc*c[x] + wxp*xp[x] + wxm*xm[x]
			d[x+1] = wc*c[x+1] + wxp*xp[x+1] + wxm*xm[x+1]
		}
	}
	for ; x < n; x++ {
		d[x] = wc*c[x] + wxp*xp[x] + wxm*xm[x]
	}
}

// box computes one row of a box kernel (rows = 3 for the 2-D 3x3 box, 9 for
// the 3-D 3x3x3 box). Slot 3r+1 of the offset table is the centre of
// x-contiguous row r, so each row contributes its centre's left, centre and
// right neighbours. Row r reads source src[3r/rows]: each x-row of the 2-D
// box sits on its own stream row, three x-rows of the 3-D box share each z
// plane. Terms accumulate one statement at a time to preserve the canonical
// summation order (bit-compatible with Reference for canonically ordered
// kernels).
func (fp *fastPlan[T]) box(dst []T, src *[3][]T, base, n, rows, unroll int) {
	// Hoist each canonical row's window out of the x loop: window r starts at
	// its leftmost tap and spans n+2 elements, so point x's taps are w[x],
	// w[x+1], w[x+2]: provably in-bounds, no per-element checks.
	var win [9][]T
	for r := 0; r < rows; r++ {
		j := base + fp.off[3*r+1]
		win[r] = src[3*r/rows][j-1 : j+n+1]
	}
	d := dst[base : base+n]
	x := 0
	if unroll >= 2 {
		for ; x+2 <= n; x += 2 {
			var a0, a1 T
			for r := 0; r < rows; r++ {
				w := win[r][: n+2 : n+2]
				wl, wc, wr := fp.w[3*r], fp.w[3*r+1], fp.w[3*r+2]
				a0 += wl * w[x]
				a0 += wc * w[x+1]
				a0 += wr * w[x+2]
				a1 += wl * w[x+1]
				a1 += wc * w[x+2]
				a1 += wr * w[x+3]
			}
			d[x] = a0
			d[x+1] = a1
		}
	}
	for ; x < n; x++ {
		var acc T
		for r := 0; r < rows; r++ {
			w := win[r][: n+2 : n+2]
			acc += fp.w[3*r] * w[x]
			acc += fp.w[3*r+1] * w[x+1]
			acc += fp.w[3*r+2] * w[x+2]
		}
		d[x] = acc
	}
}

// runTileFast sweeps one tile of a single-step program through the
// specialized body, computing row bases on the fly: the fallback for grids
// too large for the int32 span plan.
func runTileFast[T grid.Float](fp *fastPlan[T], out *grid.Grid[T], src []T, t tile, unroll int) {
	dst := out.Data()
	n := t.x1 - t.x0
	srcs := [3][]T{src, src, src}
	for z := t.z0; z < t.z1; z++ {
		for y := t.y0; y < t.y1; y++ {
			fp.row(dst, &srcs, out.Index(t.x0, y, z), n, unroll)
		}
	}
}

// runSpansFast sweeps a run of precompiled (base, n) row-span pairs of a
// single-step program through the specialized body.
func runSpansFast[T grid.Float](fp *fastPlan[T], dst, src []T, spans []int32, unroll int) {
	srcs := [3][]T{src, src, src}
	for i := 0; i+1 < len(spans); i += 2 {
		fp.row(dst, &srcs, int(spans[i]), int(spans[i+1]), unroll)
	}
}
