package exec

import (
	"testing"

	"repro/internal/tunespace"
)

// FuzzDecompose locks in the PR 3 invariant TestRowPlanCoversDomainExactly
// pinned for one geometry, under adversarial geometries: for any extents,
// halo widths and tile sizes, the tile decomposition partitions the interior
// exactly (every point covered once, no degenerate tiles, no overlap), and
// the compiled span plan agrees — every tile owns exactly its rows, every
// span stays inside the interior of its row, and spans jointly cover every
// interior flat index exactly once. The layout's recorded extreme points,
// from spans and from tiles alone, are the interior's first and last flat
// indices.
//
// Inputs are folded into small ranges so each case stays fast: extents in
// [1, 32], halos in [0, 3], tile sizes in [1, 40], which still exercises
// tiles larger than the domain, unit tiles, flat/linear domains and 2-D
// (nz = 1, haloZ = 0) degenerate geometries.
func FuzzDecompose(f *testing.F) {
	f.Add(uint8(30), uint8(20), uint8(10), uint8(1), uint8(7), uint8(8), uint8(3))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint8(1), uint8(1), uint8(1))
	f.Add(uint8(32), uint8(32), uint8(1), uint8(3), uint8(40), uint8(40), uint8(40))
	f.Add(uint8(17), uint8(5), uint8(23), uint8(2), uint8(4), uint8(11), uint8(2))
	f.Fuzz(func(t *testing.T, nx, ny, nz, halo, bx, by, bz uint8) {
		g := geom{
			nx:   int(nx)%32 + 1,
			ny:   int(ny)%32 + 1,
			nz:   int(nz)%32 + 1,
			halo: int(halo) % 4,
		}
		if g.nz > 1 {
			g.haloZ = int(halo) % 4
		}
		tv := tunespace.Vector{
			Bx: int(bx)%40 + 1,
			By: int(by)%40 + 1,
			Bz: int(bz)%40 + 1,
			U:  0,
			C:  1,
		}
		if g.nz == 1 {
			tv.Bz = 1
		}

		tiles := decompose(g, tv)

		// Exact partition of the interior: tile volumes sum to the domain
		// volume and every tile is a non-degenerate in-bounds box. Together
		// with per-point coverage (checked below through the span plan) this
		// rules out both gaps and overlap.
		volume := 0
		for _, tl := range tiles {
			if tl.x0 >= tl.x1 || tl.y0 >= tl.y1 || tl.z0 >= tl.z1 {
				t.Fatalf("degenerate tile %+v (geom %+v, tv %+v)", tl, g, tv)
			}
			if tl.x0 < 0 || tl.x1 > g.nx || tl.y0 < 0 || tl.y1 > g.ny || tl.z0 < 0 || tl.z1 > g.nz {
				t.Fatalf("tile %+v exceeds domain %+v", tl, g)
			}
			if tl.x1-tl.x0 > tv.Bx || tl.y1-tl.y0 > tv.By || tl.z1-tl.z0 > tv.Bz {
				t.Fatalf("tile %+v larger than block %+v", tl, tv)
			}
			volume += (tl.x1 - tl.x0) * (tl.y1 - tl.y0) * (tl.z1 - tl.z0)
		}
		if want := g.nx * g.ny * g.nz; volume != want {
			t.Fatalf("tiles cover volume %d, want %d (geom %+v, tv %+v)", volume, want, g, tv)
		}

		spans, spanStart := buildSpans(g, tiles)
		if spans == nil || len(spanStart) != len(tiles)+1 {
			t.Fatalf("span plan missing: spans=%d spanStart=%d tiles=%d", len(spans), len(spanStart), len(tiles))
		}

		// Interior flat indices, each expected exactly once.
		want := make(map[int]bool, g.nx*g.ny*g.nz)
		for z := 0; z < g.nz; z++ {
			for y := 0; y < g.ny; y++ {
				for x := 0; x < g.nx; x++ {
					want[g.index(x, y, z)] = true
				}
			}
		}
		covered := make(map[int]int, len(want))
		for ti := range tiles {
			lo, hi := spanStart[ti], spanStart[ti+1]
			rows := (tiles[ti].y1 - tiles[ti].y0) * (tiles[ti].z1 - tiles[ti].z0)
			if int(hi-lo) != rows {
				t.Fatalf("tile %d owns %d spans, want %d", ti, hi-lo, rows)
			}
			for si := lo; si < hi; si++ {
				base, n := int(spans[2*si]), int(spans[2*si+1])
				if n != tiles[ti].x1-tiles[ti].x0 {
					t.Fatalf("tile %d span %d has length %d, want %d", ti, si, n, tiles[ti].x1-tiles[ti].x0)
				}
				for i := base; i < base+n; i++ {
					if !want[i] {
						t.Fatalf("span [%d,%d) covers non-interior index %d (geom %+v, tv %+v)",
							base, base+n, i, g, tv)
					}
					covered[i]++
				}
			}
		}
		if len(covered) != len(want) {
			t.Fatalf("spans cover %d points, want %d (geom %+v, tv %+v)", len(covered), len(want), g, tv)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("index %d covered %d times (geom %+v, tv %+v)", i, c, g, tv)
			}
		}

		// The O(1) bounds proof (checkReads) rests on the layout's extremes:
		// they are the lowest span base and the highest span end, and both
		// are the interior's first and last flat indices.
		l := newLayout(g, tv)
		minBase, maxEnd := g.size(), -1
		for i := 0; i < len(spans); i += 2 {
			minBase = min(minBase, int(spans[i]))
			maxEnd = max(maxEnd, int(spans[i])+int(spans[i+1])-1)
		}
		first, last := g.index(0, 0, 0), g.index(g.nx-1, g.ny-1, g.nz-1)
		if l.first != minBase || l.last != maxEnd || l.first != first || l.last != last {
			t.Fatalf("layout extremes %d..%d, spans reach %d..%d, interior %d..%d (geom %+v, tv %+v)",
				l.first, l.last, minBase, maxEnd, first, last, g, tv)
		}
	})
}
