package dataset

import (
	"testing"
	"time"

	"repro/internal/stencil"
	"repro/internal/tunespace"
)

func TestCompileCostGrowsWithDensityAndUnroll(t *testing.T) {
	sparse := CompileCost(stencil.Gradient(), tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1})
	dense := CompileCost(stencil.Tricubic(), tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1})
	if dense <= sparse {
		t.Errorf("denser stencil should compile slower: %v vs %v", dense, sparse)
	}
	u0 := CompileCost(stencil.Laplacian(), tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1})
	u8 := CompileCost(stencil.Laplacian(), tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 8, C: 1})
	if u8 <= u0 {
		t.Errorf("unrolled variant should compile slower: %v vs %v", u8, u0)
	}
}

func TestCompileCostMagnitude(t *testing.T) {
	// A full training set (hundreds of dense variants) should account to
	// hours, matching the paper's 32h narrative; a single cheap variant
	// stays in seconds.
	cheap := CompileCost(stencil.Gradient(), tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 0, C: 1})
	if cheap > 10*time.Second {
		t.Errorf("single sparse variant costs %v, implausibly high", cheap)
	}
	if cheap < 500*time.Millisecond {
		t.Errorf("single variant costs %v, implausibly low", cheap)
	}
}

func TestCompileCostMonotoneInFusionAndUnroll(t *testing.T) {
	k := stencil.Laplacian()
	// Nondecreasing (strictly increasing) in K for fixed U, and in U for
	// fixed K; K=0 and K=1 both mean "unfused" and must cost the same.
	for _, u := range []int{0, 2, 8} {
		prev := time.Duration(0)
		for kf := 1; kf <= tunespace.MaxFuse; kf++ {
			c := CompileCost(k, tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: u, C: 1, K: kf})
			if c <= prev {
				t.Errorf("u=%d: cost(K=%d)=%v not greater than cost(K=%d)=%v", u, kf, c, kf-1, prev)
			}
			prev = c
		}
	}
	for _, kf := range []int{1, 2, 4} {
		prev := time.Duration(0)
		for _, u := range []int{0, 1, 2, 4, 8} {
			c := CompileCost(k, tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: u, C: 1, K: kf})
			if c <= prev {
				t.Errorf("k=%d: cost(U=%d)=%v not greater than previous %v", kf, u, c, prev)
			}
			prev = c
		}
	}
	k0 := CompileCost(k, tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 2, C: 1, K: 0})
	k1 := CompileCost(k, tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 2, C: 1, K: 1})
	if k0 != k1 {
		t.Errorf("K=0 cost %v != K=1 cost %v; both mean unfused", k0, k1)
	}
}
