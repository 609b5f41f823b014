package exec

import (
	"math"

	"repro/internal/grid"
)

// This file is the generic-path inner loop of the compiled executor: the
// body every program without a structural fast path (fastpath.go) runs. It
// has two implementations of one contract — out[base+x] = Σ_t w_t·s_t for
// every (base, n) row span, folded in plan order:
//
//   - the AVX2 span kernels of rows_amd64.s, one per element type (4 float64
//     or 8 float32 lanes), selected at compile time on amd64 CPUs that
//     support AVX2 (GenericBody reports "avx2");
//   - the portable term-major passes below, on every other CPU ("portable").
//
// The AVX2 kernel walks a whole span list in one call: for each block of
// points it loads term 0's source, multiplies, then adds each further
// term's product, so the accumulator stays in vector registers across all
// terms and per-term bookkeeping is paid once per block, not per point. It
// reads data[t][base+x+idxOff[t]] straight from the plan's slice headers and
// has no bounds checks; Compile proves every span's reads in bounds once
// (checkReads) and Program.Run rejects grids shorter than the geometry.
//
// Why passes win on the portable path. A point-major loop performs, per
// point, one indirect load of weight[t], data[t] and idxOff[t] for every
// term. A pass touches one term's source with unit stride across the whole
// row, so the per-term bookkeeping is paid once per row instead of once per
// point, the loads prefetch perfectly, and the loop bodies carry no
// indirection at all. The output row round-trips through dst between
// passes, but a row is at most Bx elements and stays in L1.
//
// Index loops. Every pass clips its operands to the row length n first
// (dst = out[base : base+n : base+n]; src = data[o : o+n : o+n] with
// o = base+off, one three-index reslice per term and row), then walks a
// single index i in steps of four over s[i:i+4:i+4] windows of each
// operand. Because i+4 <= n and every operand has length n, the element
// accesses carry no bounds checks, and the loop keeps one counter live
// rather than one slice header per operand.
//
// Summation order. Both bodies compute w_0·s_0 and then add w_t·s_t for
// t = 1, 2, … in plan order, one rounding per multiply and per add (the
// AVX2 kernel uses separate multiplies and adds, never FMA), so they agree
// bit for bit with each other and with Reference at every point regardless
// of the unroll factor (Reference computes 0 + w_0·s_0, which differs only
// in the sign of a zero). TestGenericRowsMatchReference and
// TestGenericBodiesMatch assert this.
//
// The tuning vector's unroll factor u selects the fuse width (u < 2 → 1,
// u < 4 → 2, else 4): how many terms a portable pass folds, and how many
// vectors an AVX2 point block holds. Either way u stays a genuine
// performance knob: wider blocks trade register pressure for fewer
// round-trips, the same trade PATUS makes when unrolling.

// useAVX2 selects the AVX2 span kernels for programs compiled from now on.
// It is set once from the CPU and the OS (cpuid, xgetbv); tests clear it to
// pin the portable passes. Each program records the choice at compile time.
var useAVX2 = cpuHasAVX2()

// GenericBody names the generic row body programs compiled now run: "avx2"
// (the span kernels of rows_amd64.s) or "portable" (the Go passes of this
// file). Programs that match a structural fast path run fastpath.go instead.
func GenericBody() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// fuseWidth maps the tuning vector's unroll factor to the number of terms a
// portable pass folds, and of vectors an AVX2 point block holds.
func fuseWidth(u int) int {
	switch {
	case u >= 4:
		return 4
	case u >= 2:
		return 2
	default:
		return 1
	}
}

// runRowPlan computes the row span out[base : base+n] as the in-order
// weighted sum of the plan's terms, as term-major passes of the given fuse
// width. The plan's tables are loaded once per row and clipped to the term
// count, so each term's source row costs one three-index reslice.
func runRowPlan[T grid.Float](p *plan[T], out []T, base, n, fuse int) {
	dst := out[base : base+n : base+n]
	w := p.weight
	nt := len(w)
	off, data := p.idxOff[:nt], p.data[:nt]
	src := func(t int) []T {
		o := base + off[t]
		return data[t][o : o+n : o+n]
	}
	var t int
	switch {
	case fuse >= 4 && nt >= 4:
		rowScale4(dst, src(0), src(1), src(2), src(3), w[0], w[1], w[2], w[3])
		t = 4
	case fuse >= 2 && nt >= 2:
		rowScale2(dst, src(0), src(1), w[0], w[1])
		t = 2
	default:
		rowScale1(dst, src(0), w[0])
		t = 1
	}
	if fuse >= 4 {
		for ; nt-t >= 4; t += 4 {
			rowAxpy4(dst, src(t), src(t+1), src(t+2), src(t+3), w[t], w[t+1], w[t+2], w[t+3])
		}
	}
	if fuse >= 2 {
		for ; nt-t >= 2; t += 2 {
			rowAxpy2(dst, src(t), src(t+1), w[t], w[t+1])
		}
	}
	for ; t < nt; t++ {
		rowAxpy1(dst, src(t), w[t])
	}
}

// runSpans executes a run of (base, n) row-span pairs through the generic
// body: one AVX2 span-kernel call when avx2 is set, else the portable
// passes row by row.
func runSpans[T grid.Float](p *plan[T], out []T, spans []int32, fuse int, avx2 bool) {
	if avx2 {
		spansAVX2(out, p.data, p.idxOff, p.weight, spans, fuse)
		return
	}
	for i := 0; i+1 < len(spans); i += 2 {
		runRowPlan(p, out, int(spans[i]), int(spans[i+1]), fuse)
	}
}

// runRow computes the single row span out[base : base+n] through the
// generic body. A row whose end does not fit in int32 takes the portable
// passes.
func runRow[T grid.Float](p *plan[T], out []T, base, n, fuse int, avx2 bool) {
	if avx2 && base+n <= math.MaxInt32 {
		span := [2]int32{int32(base), int32(n)}
		spansAVX2(out, p.data, p.idxOff, p.weight, span[:], fuse)
		return
	}
	runRowPlan(p, out, base, n, fuse)
}

// rowScale1 is the head pass: dst = w·a.
func rowScale1[T grid.Float](dst, a []T, w T) {
	n := len(dst)
	a = a[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0] = w * x[0]
		d[1] = w * x[1]
		d[2] = w * x[2]
		d[3] = w * x[3]
	}
	for ; i < n; i++ {
		dst[i] = w * a[i]
	}
}

// rowScale2 is the 2-term fused head pass: dst = wa·a + wb·b.
func rowScale2[T grid.Float](dst, a, b []T, wa, wb T) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0] = wa*x[0] + wb*y[0]
		d[1] = wa*x[1] + wb*y[1]
		d[2] = wa*x[2] + wb*y[2]
		d[3] = wa*x[3] + wb*y[3]
	}
	for ; i < n; i++ {
		dst[i] = wa*a[i] + wb*b[i]
	}
}

// rowScale4 is the 4-term fused head pass: dst = wa·a + wb·b + wc·c + wd·d.
func rowScale4[T grid.Float](dst, a, b, c, e []T, wa, wb, wc, wd T) {
	n := len(dst)
	a, b, c, e = a[:n], b[:n], c[:n], e[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d, x, y, z, u := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4], c[i:i+4:i+4], e[i:i+4:i+4]
		d[0] = wa*x[0] + wb*y[0] + wc*z[0] + wd*u[0]
		d[1] = wa*x[1] + wb*y[1] + wc*z[1] + wd*u[1]
		d[2] = wa*x[2] + wb*y[2] + wc*z[2] + wd*u[2]
		d[3] = wa*x[3] + wb*y[3] + wc*z[3] + wd*u[3]
	}
	for ; i < n; i++ {
		dst[i] = wa*a[i] + wb*b[i] + wc*c[i] + wd*e[i]
	}
}

// rowAxpy1 accumulates one term: dst += w·a.
func rowAxpy1[T grid.Float](dst, a []T, w T) {
	n := len(dst)
	a = a[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0] += w * x[0]
		d[1] += w * x[1]
		d[2] += w * x[2]
		d[3] += w * x[3]
	}
	for ; i < n; i++ {
		dst[i] += w * a[i]
	}
}

// rowAxpy2 accumulates two fused terms in plan order. The bodies spell out
// d = d + wa·a + wb·b rather than d += …, because += would evaluate the sum
// of products before folding it into d — a reassociation that breaks
// bit-equality with the sequential Reference accumulation.
func rowAxpy2[T grid.Float](dst, a, b []T, wa, wb T) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0] = d[0] + wa*x[0] + wb*y[0]
		d[1] = d[1] + wa*x[1] + wb*y[1]
		d[2] = d[2] + wa*x[2] + wb*y[2]
		d[3] = d[3] + wa*x[3] + wb*y[3]
	}
	for ; i < n; i++ {
		dst[i] = dst[i] + wa*a[i] + wb*b[i]
	}
}

// rowAxpy4 accumulates four fused terms in plan order (see rowAxpy2 for why
// the bodies avoid +=).
func rowAxpy4[T grid.Float](dst, a, b, c, e []T, wa, wb, wc, wd T) {
	n := len(dst)
	a, b, c, e = a[:n], b[:n], c[:n], e[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d, x, y, z, u := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4], c[i:i+4:i+4], e[i:i+4:i+4]
		d[0] = d[0] + wa*x[0] + wb*y[0] + wc*z[0] + wd*u[0]
		d[1] = d[1] + wa*x[1] + wb*y[1] + wc*z[1] + wd*u[1]
		d[2] = d[2] + wa*x[2] + wb*y[2] + wc*z[2] + wd*u[2]
		d[3] = d[3] + wa*x[3] + wb*y[3] + wc*z[3] + wd*u[3]
	}
	for ; i < n; i++ {
		dst[i] = dst[i] + wa*a[i] + wb*b[i] + wc*c[i] + wd*e[i]
	}
}
