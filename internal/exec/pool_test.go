package exec

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/shape"
	"repro/internal/tunespace"
)

// poolWorkers and poolChunks span the schedule's corners: one participant,
// an even and an odd slab count, more workers than tiles, and claim sizes
// that do and do not divide the tile counts.
var (
	poolWorkers = []int{1, 2, 3, 8}
	poolChunks  = []int{1, 2, 3, 7}
)

// poolGrids are (nx, ny, nz, blocking) cases with many tiles, a few tiles
// (fewer than 8 workers) and a single tile.
var poolGrids = []struct {
	nx, ny, nz int
	bx, by, bz int
}{
	{29, 13, 11, 4, 4, 2},
	{23, 17, 1, 4, 2, 1},
	{12, 6, 3, 8, 4, 4},
	{9, 9, 1, 16, 16, 1},
}

// TestPoolRunsEveryTileOnce runs an in-place doubling kernel (out = 2·in on
// the same grid), so a tile run twice reads 4× and a tile skipped reads 1×:
// every interior point must read exactly 2× its start value, and each Run
// must count exactly one pool run.
func TestPoolRunsEveryTileOnce(t *testing.T) {
	double := &LinearKernel{Name: "double", Buffers: 1, Terms: []Term{{Offset: shape.Point{}, Weight: 2}}}
	for _, w := range poolWorkers {
		r := &Runner[float64]{Workers: w}
		for _, g := range poolGrids {
			for _, c := range poolChunks {
				name := fmt.Sprintf("W=%d/%dx%dx%d/c=%d", w, g.nx, g.ny, g.nz, c)
				grd := grid.New(g.nx, g.ny, g.nz, 0, 0)
				grd.FillPattern()
				start := append([]float64(nil), grd.Data()...)
				before := r.PoolStats().Runs
				tv := tunespace.Vector{Bx: g.bx, By: g.by, Bz: g.bz, U: 2, C: c}
				if err := r.Run(double, grd, []*grid.Grid[float64]{grd}, tv); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i, v := range grd.Data() {
					if v != 2*start[i] {
						t.Fatalf("%s: element %d = %v, want 2×%v", name, i, v, start[i])
					}
				}
				if runs := r.PoolStats().Runs - before; runs != 1 {
					t.Fatalf("%s: one Run counted %d pool runs", name, runs)
				}
			}
		}
		r.Close()
	}
}

// poolTestKernels are a radius-2 asymmetric kernel and a 7-point star.
func poolTestKernels() []*LinearKernel {
	gen := &LinearKernel{Name: "gen10", Buffers: 1}
	for i, p := range []shape.Point{
		{}, {X: 1}, {X: -2}, {Y: 1}, {Y: -1}, {Z: 2}, {Z: -1}, {X: 1, Y: 1}, {X: -1, Z: 1}, {Y: -2, Z: -1},
	} {
		gen.Terms = append(gen.Terms, Term{Offset: p, Weight: 0.05 + 0.01*float64(i)})
	}
	return []*LinearKernel{gen, fusedTestKernels()[0].k}
}

// TestPoolScheduleMatchesReference requires every (workers, c) schedule to
// reproduce Reference bit for bit, on grids with many tiles and with fewer
// tiles than workers.
func TestPoolScheduleMatchesReference(t *testing.T) {
	for _, k := range poolTestKernels() {
		for _, g := range poolGrids {
			if g.nz == 1 {
				continue // both kernels read along z
			}
			ref, ins := buildWorkspace(t, k, g.nx, g.ny, g.nz)
			if err := NewRunner().Reference(k, ref, ins); err != nil {
				t.Fatal(err)
			}
			for _, w := range poolWorkers {
				r := &Runner[float64]{Workers: w}
				for _, c := range poolChunks {
					got := grid.New(g.nx, g.ny, g.nz, ref.Halo, ref.HaloZ)
					tv := tunespace.Vector{Bx: g.bx, By: g.by, Bz: g.bz, U: 4, C: c}
					if err := r.Run(k, got, ins, tv); err != nil {
						t.Fatalf("%s W=%d %+v: %v", k.Name, w, tv, err)
					}
					if d := grid.MaxAbsDiff(ref, got); d != 0 {
						t.Fatalf("%s W=%d %dx%dx%d %+v: diff %g, want bit-for-bit match", k.Name, w, g.nx, g.ny, g.nz, tv, d)
					}
				}
				r.Close()
			}
		}
	}
}

// TestPoolFusedScheduleMatchesSequential requires every (workers, c)
// schedule of the fused wavefront's row space to reproduce sequential
// stepping bit for bit, in 3-D (many rows per plane) and 2-D (one row per
// plane, so fewer rows than workers).
func TestPoolFusedScheduleMatchesSequential(t *testing.T) {
	for _, fk := range fusedTestKernels() {
		if name := fk.k.Name; name != "t-star7" && name != "t-gen3" && name != "t-gen2" {
			continue
		}
		nx, ny, nz := 13, 9, 8
		if !fk.threeD {
			nx, ny, nz = 17, 11, 1
		}
		for _, w := range poolWorkers {
			r := &Runner[float64]{Workers: w}
			for _, c := range poolChunks {
				runFusedCase(t, r, fk.k, nx, ny, nz, tunespace.Vector{Bx: 8, By: 4, Bz: 4, U: 2, C: c, K: 3})
			}
			r.Close()
		}
	}
}

// TestPoolRunCompletesWithoutJoiners holds every worker in beforeJoinHook:
// Run must still complete, with the caller draining every slab (all but its
// own stolen) and no run joined. Once the workers are released, their stale
// wakes must not disturb the next runs.
func TestPoolRunCompletesWithoutJoiners(t *testing.T) {
	const workers = 4
	arrived := make(chan struct{}, workers)
	release := make(chan struct{})
	beforeJoinHook = func() {
		select {
		case arrived <- struct{}{}:
		default: // later wakes, after the release
		}
		<-release
	}
	r := &Runner[float64]{Workers: workers}
	t.Cleanup(func() { beforeJoinHook = nil })

	k := poolTestKernels()[0]
	ref, ins := buildWorkspace(t, k, 29, 13, 11)
	if err := r.Reference(k, ref, ins); err != nil {
		t.Fatal(err)
	}
	tv := tunespace.Vector{Bx: 4, By: 4, Bz: 2, U: 2, C: 3}
	check := func(run string) {
		t.Helper()
		got := grid.New(29, 13, 11, ref.Halo, ref.HaloZ)
		if err := r.Run(k, got, ins, tv); err != nil {
			t.Fatalf("%s: %v", run, err)
		}
		if d := grid.MaxAbsDiff(ref, got); d != 0 {
			t.Fatalf("%s: diff %g, want bit-for-bit match", run, d)
		}
	}

	check("run with every worker held")
	for range workers - 1 {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatal("woken workers never reached the join hook")
		}
	}
	pr, err := r.Compile(k, ref, ins, tv)
	if err != nil {
		t.Fatal(err)
	}
	chunks := ceilDiv(pr.Tiles(), tv.C)
	st := r.PoolStats()
	if st.Runs != 1 || st.JoinedRuns != 0 || st.Steals != uint64(chunks-chunks/workers) {
		t.Errorf("stats after the held run = %+v, want 1 run, 0 joined, %d steals", st, chunks-chunks/workers)
	}

	close(release)
	for i := range 3 {
		check(fmt.Sprintf("run %d after release", i+2))
	}
	r.Close()
}
