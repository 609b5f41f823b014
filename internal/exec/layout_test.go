package exec

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/shape"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// TestKernelsShareLayout compiles distinct generic kernels on one
// (geometry, bx, by, bz) under every (u, c) and requires every program to
// point at one layout: the same tile and span backing arrays, built once.
// Each program still matches Reference bit for bit.
func TestKernelsShareLayout(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	rng := rand.New(rand.NewSource(7))
	const halo = 2
	out := grid.New(20, 12, 9, halo, halo)
	ref := grid.New(20, 12, 9, halo, halo)
	var ins []*grid.Grid[float64]
	for b := 0; b < 3; b++ {
		g := grid.New(20, 12, 9, halo, halo)
		g.FillPattern()
		ins = append(ins, g)
	}
	var shared *layout
	for i := 0; i < 6; i++ {
		k := randomGenericKernel(rng, 3, halo)
		if err := r.Reference(k, ref, ins[:k.Buffers]); err != nil {
			t.Fatal(err)
		}
		for u := 0; u <= 8; u++ {
			for c := 1; c <= 4; c++ {
				tv := tunespace.Vector{Bx: 8, By: 4, Bz: 3, U: u, C: c}
				pr, err := r.Compile(k, out, ins[:k.Buffers], tv)
				if err != nil {
					t.Fatal(err)
				}
				if shared == nil {
					shared = pr.layout
				}
				if pr.layout != shared || &pr.tiles[0] != &shared.tiles[0] ||
					&pr.spans[0] != &shared.spans[0] || &pr.spanStart[0] != &shared.spanStart[0] {
					t.Fatalf("%s %+v: program does not share the layout of its (geometry, bx, by, bz)", k.Name, tv)
				}
				if err := pr.Run(out, ins[:k.Buffers]); err != nil {
					t.Fatal(err)
				}
				if d := grid.MaxAbsDiff(ref, out); d != 0 {
					t.Fatalf("%s %+v: diff %g against Reference", k.Name, tv, d)
				}
			}
		}
	}
	if len(r.layouts) != 1 {
		t.Errorf("layout cache holds %d layouts, want 1", len(r.layouts))
	}
	progs, layouts := r.CacheStats()
	if want := uint64(6 * 9 * 4); progs.Misses != want || progs.Hits != 0 {
		t.Errorf("program counts %+v, want %d misses and no hits", progs, want)
	}
	if layouts.Misses != 1 || layouts.Hits != progs.Misses-1 {
		t.Errorf("layout counts %+v, want 1 miss and %d hits", layouts, progs.Misses-1)
	}
}

// checkLayoutCache asserts the layout cache's invariants: the tile and span
// totals match the cached layouts and stay within their bounds, and every
// cached program points at a cached layout.
func checkLayoutCache(t *testing.T, r *Runner[float64]) {
	t.Helper()
	tiles, spans := 0, 0
	live := make(map[*layout]bool, len(r.layouts))
	for _, l := range r.layouts {
		tiles += len(l.tiles)
		spans += len(l.spans) / 2
		live[l] = true
	}
	if tiles != r.cachedTiles || spans != r.cachedSpans {
		t.Fatalf("cache totals %d tiles, %d spans; layouts hold %d, %d", r.cachedTiles, r.cachedSpans, tiles, spans)
	}
	if tiles > maxCachedTiles || spans > maxCachedSpans || len(r.layouts) > maxCachedLayouts {
		t.Fatalf("layout cache holds %d layouts, %d tiles, %d spans; bounds are %d, %d, %d",
			len(r.layouts), tiles, spans, maxCachedLayouts, maxCachedTiles, maxCachedSpans)
	}
	for key, pr := range r.progs {
		if !live[pr.layout] {
			t.Fatalf("program %s %+v points at an evicted layout", key.kernel.Name, key.tv)
		}
	}
}

// TestLayoutCacheBounds compiles two kernels per layout past the span bound
// (a tall 2-D grid: one row span per grid row in every layout) and past the
// layout-count bound (every blocking of a 16³ grid). The totals must stay
// within their bounds after every compile, no cached program may point at
// an evicted layout, and evicting a layout must drop both its programs.
func TestLayoutCacheBounds(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	pair := &LinearKernel{Name: "pair", Buffers: 1, Terms: []Term{
		{Offset: shape.Point{X: 1}, Weight: 0.5},
		{Offset: shape.Point{Y: -1}, Weight: 0.5},
	}}

	// compileUntilEvicted compiles every kernel on vectors(0), vectors(1),
	// ... until three layouts have been evicted.
	compileUntilEvicted := func(kernels []*LinearKernel, nx, ny, nz int, vectors func(i int) tunespace.Vector) {
		t.Helper()
		out, ins := buildWorkspace(t, kernels[0], nx, ny, nz)
		_, before := r.CacheStats()
		for i := 0; ; i++ {
			for _, k := range kernels {
				if _, err := r.Compile(k, out, ins, vectors(i)); err != nil {
					t.Fatal(err)
				}
			}
			checkLayoutCache(t, r)
			if _, now := r.CacheStats(); now.Evictions >= before.Evictions+3 {
				return
			}
		}
	}

	// 2^16 spans per layout: the span bound evicts after 64 layouts, long
	// before the program-count bound.
	compileUntilEvicted([]*LinearKernel{star5Kernel(), pair}, 2, 1<<16, 1, func(i int) tunespace.Vector {
		return tunespace.Vector{Bx: 2, By: tunespace.MaxBlock - i, Bz: 1, U: 1, C: 1}
	})
	progs, layouts := r.CacheStats()
	if progs.Evictions != 2*layouts.Evictions {
		t.Errorf("%d layout evictions dropped %d programs, want 2 each", layouts.Evictions, progs.Evictions)
	}
	r.Close()

	compileUntilEvicted([]*LinearKernel{Executable(stencil.Laplacian()), pair}, 16, 16, 16, func(i int) tunespace.Vector {
		return tunespace.Vector{Bx: 2 + i%15, By: 2 + i/15%15, Bz: 2 + i/225, U: 1, C: 1}
	})
}

// TestCompileNewKernelCostIndependentOfGrid compiles fresh kernels on a
// cached layout at 32³ and 64³: a new program builds only its term plan, so
// it allocates the same at both sizes, however many rows the layout holds.
func TestCompileNewKernelCostIndependentOfGrid(t *testing.T) {
	terms := Executable(stencil.Gradient()).Terms
	tv := tunespace.Vector{Bx: 16, By: 8, Bz: 8, U: 4, C: 1}
	allocs := map[int]float64{}
	for _, n := range []int{32, 64} {
		r := NewRunner()
		k := &LinearKernel{Name: "fresh", Buffers: 1, Terms: terms}
		out, ins := buildWorkspace(t, k, n, n, n)
		if _, err := r.Compile(k, out, ins, tv); err != nil { // warm the layout
			t.Fatal(err)
		}
		allocs[n] = testing.AllocsPerRun(100, func() {
			k := &LinearKernel{Name: "fresh", Buffers: 1, Terms: terms}
			if _, err := r.Compile(k, out, ins, tv); err != nil {
				t.Fatal(err)
			}
		})
		if _, layouts := r.CacheStats(); layouts.Misses != 1 {
			t.Errorf("n=%d: %d layouts built, want 1", n, layouts.Misses)
		}
		r.Close()
	}
	if allocs[32] != allocs[64] {
		t.Errorf("compiling a new kernel allocates %v at 32³ but %v at 64³", allocs[32], allocs[64])
	}
}

// TestCacheStatsCount checks the program and layout counters through
// Compile, Run and the Measurer, which sums its two runners.
func TestCacheStatsCount(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	k := Executable(stencil.Laplacian())
	out, ins := buildWorkspace(t, k, 16, 16, 16)
	tv := tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 2, C: 1}
	tv2 := tv
	tv2.C = 2
	for _, v := range []tunespace.Vector{tv, tv, tv2} {
		if _, err := r.Compile(k, out, ins, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Run(k, out, ins, tv2); err != nil {
		t.Fatal(err)
	}
	progs, layouts := r.CacheStats()
	if want := (CacheStats{Hits: 2, Misses: 2}); progs != want {
		t.Errorf("program counts %+v, want %+v", progs, want)
	}
	if want := (CacheStats{Hits: 1, Misses: 1}); layouts != want {
		t.Errorf("layout counts %+v, want %+v", layouts, want)
	}

	m := NewMeasurer()
	defer m.Close()
	m.Repetitions = 1
	size := stencil.Size3D(16, 16, 16)
	for _, dt := range []stencil.DataType{stencil.Float64, stencil.Float32} {
		q := stencil.Instance{Kernel: stencil.Laplacian(), Size: size}
		q.Kernel.Type = dt
		for _, v := range []tunespace.Vector{tv, tv2} {
			if _, err := m.Measure(q, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	progs, layouts = m.CacheStats()
	if want := (CacheStats{Misses: 4}); progs != want {
		t.Errorf("measurer program counts %+v, want %+v", progs, want)
	}
	if want := (CacheStats{Hits: 2, Misses: 2}); layouts != want {
		t.Errorf("measurer layout counts %+v, want %+v", layouts, want)
	}
}

// TestCacheStatsWhileCompiling reads the counts from other goroutines while
// one compiles and runs: the counts never wait for r.mu (a run holds it for
// a whole sweep). Run with -race.
func TestCacheStatsWhileCompiling(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	rng := rand.New(rand.NewSource(3))
	halo1 := &LinearKernel{Buffers: 3, Terms: []Term{{Offset: shape.Point{X: 1}}}}
	out, ins := buildWorkspace(t, halo1, 16, 16, 16)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastProgs, lastLayouts CacheStats
			for {
				select {
				case <-done:
					return
				default:
				}
				progs, layouts := r.CacheStats()
				if progs.Misses < lastProgs.Misses || progs.Hits < lastProgs.Hits ||
					layouts.Misses < lastLayouts.Misses || layouts.Hits < lastLayouts.Hits {
					t.Errorf("counts went backwards: programs %+v after %+v, layouts %+v after %+v",
						progs, lastProgs, layouts, lastLayouts)
					return
				}
				lastProgs, lastLayouts = progs, layouts
			}
		}()
	}
	for i := 0; i < 40; i++ {
		k := randomGenericKernel(rng, 3, 1)
		if err := r.Run(k, out, ins[:k.Buffers], tunespace.Vector{Bx: 8, By: 4 + i%2*4, Bz: 8, U: i % 5, C: 1}); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}
