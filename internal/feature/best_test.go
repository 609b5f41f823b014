package feature

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// firstMax is svmrank.ArgMax, which this package cannot import: the index
// of the highest score, the first one on a tie, or −1 when no score is a
// number above −Inf.
func firstMax(scores []float64) int {
	best, top := -1, math.Inf(-1)
	for i, v := range scores {
		if v > top {
			best, top = i, v
		}
	}
	return best
}

// TestBestMatchesArgMax: Plan.Best picks what firstMax picks from
// ScoreInto's scores, whatever the weights and the order of the set.
//
// The weights are normal, small-integer (most scores tie), zero (every
// score ties, so the pick is 0), cut to the 434 components of a model
// trained before fusion, and ±1e308, whose scores overflow to ±Inf and NaN
// and whose Σ|w| overflows, so nothing is pruned. The sets are the 2-D, 3-D
// and fused predefined sets in set order, shuffled, reversed, repeated
// twice and with every candidate doubled in place (runs of two candidates
// of one u and one c), at cold sizes; a set of off-lattice vectors mixed
// with lattice ones has more distinct keys than the scorer's tables hold,
// so they empty during a call. A last set repeats the best candidate of
// the 3-D set in a later run whose bound is above its best score, so that
// run is scored first and its copy ties the earlier one: Best must keep the
// earlier index.
//
// Under normal weights Best scores at most 64 candidates of a predefined
// set exactly: a fallback to scoring every candidate fails the test.
func TestBestMatchesArgMax(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	normal, small, huge := make([]float64, Dim), make([]float64, Dim), make([]float64, Dim)
	for i := range normal {
		normal[i] = rng.NormFloat64()
		small[i] = float64(rng.Intn(3) - 1)
		huge[i] = float64(rng.Intn(2)*2-1) * 1e308
	}
	weights := []struct {
		name string
		w    []float64
	}{
		{"normal", normal},
		{"small-integer", small},
		{"zero", make([]float64, Dim)},
		{"434 wide", normal[:idxFuse]},
		{"±1e308", huge},
	}
	ties := 0
	for _, dims := range []int{2, 3} {
		space := tunespace.NewSpace(dims)
		k := stencil.Blur()
		if dims == 3 {
			k = stencil.Laplacian()
		}
		bases := map[string][]tunespace.Vector{"predefined": space.Predefined()}
		if dims == 3 {
			bases["fused"] = space.PredefinedFused()
		}
		sets := map[string][]tunespace.Vector{}
		for name, base := range bases {
			shuffled := slices.Clone(base)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			reversed := slices.Clone(base)
			slices.Reverse(reversed)
			var doubled []tunespace.Vector
			for _, v := range shuffled {
				doubled = append(doubled, v, v)
			}
			sets[name] = base
			sets[name+" shuffled"] = shuffled
			sets[name+" reversed"] = reversed
			sets[name+" repeated"] = slices.Repeat(base, 2)
			sets[name+" shuffled doubled"] = doubled
		}
		var mixed []tunespace.Vector
		for _, v := range space.RandomSet(rng, 600) {
			mixed = append(mixed, v, v, space.Predefined()[rng.Intn(len(space.Predefined()))])
		}
		sets["off-lattice mixed"] = mixed

		for _, sz := range coldSizes(dims, 3) {
			p := NewEncoder().Plan(stencil.Instance{Kernel: k, Size: sz})
			for _, wc := range weights {
				for name, cands := range sets {
					what := fmt.Sprintf("%v %s weights, %s set", sz, wc.name, name)
					scores := make([]float64, len(cands))
					p.ScoreInto(scores, wc.w, cands)
					want := firstMax(scores)
					s := acquire(p, wc.w)
					got, scored := s.best(cands)
					s.release()
					if got != want {
						t.Fatalf("%s: Best %d (%v), first maximum %d (%v)", what, got, at(scores, got), want, at(scores, want))
					}
					if wc.name == "zero" && got != 0 {
						t.Errorf("%s: Best %d, want 0", what, got)
					}
					if name == "predefined" && wc.name == "normal" && scored > 64 {
						t.Errorf("%s: scored %d of %d candidates exactly, want ≤ 64", what, scored, len(cands))
					}
				}
			}
			if dims == 3 && checkTieInLaterRun(t, p, normal, space.Predefined()) {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Error("no cold size gave a later run that ties the best candidate")
	}
}

// at returns scores[i], or NaN for i = −1.
func at(scores []float64, i int) float64 {
	if i < 0 {
		return math.NaN()
	}
	return scores[i]
}

// checkTieInLaterRun appends to the predefined set base a run of the best
// candidate a = (shape, u*, c*) and of x = (shape, u', c'), where x scores
// below a but (shape, u', c*) or (shape, u*, c') would score above it. The
// run's bound is then above a's score and above every other run's bound,
// so Best scores it first and finds a's score at the copy; the earlier a
// ties it and must win. It reports false when no u in [0, 8] and c in
// [1, 16] make such an x.
func checkTieInLaterRun(t *testing.T, p *Plan, w []float64, base []tunespace.Vector) bool {
	t.Helper()
	scores := make([]float64, len(base))
	p.ScoreInto(scores, w, base)
	a := base[firstMax(scores)]
	score := func(v tunespace.Vector) float64 {
		var out [1]float64
		p.ScoreInto(out[:], w, []tunespace.Vector{v})
		return out[0]
	}
	top := score(a)
	for u := tunespace.MinUnroll; u <= tunespace.MaxUnroll; u++ {
		for c := tunespace.MinChunk; c <= tunespace.MaxChunk; c++ {
			x, xu, xc := a, a, a
			x.U, x.C, xu.U, xc.C = u, c, u, c
			if score(x) >= top || max(score(xu), score(xc)) <= top+1e-6 {
				continue
			}
			// Two candidates of another shape keep the run apart from the
			// set's last run (a lone one would not be bounded).
			sep := base[:2]
			if sep[0].Bx == a.Bx && sep[0].By == a.By && sep[0].Bz == a.Bz {
				sep = base[16:18]
			}
			cands := append(append(slices.Clone(base), sep...), a, x)
			s := acquire(p, w)
			got, _ := s.best(cands)
			later, others := math.NaN(), math.Inf(-1)
			for _, r := range s.runs {
				if r.lo == len(base)+2 {
					later = r.bound
				} else {
					others = max(others, r.bound)
				}
			}
			s.release()
			if want := firstMax(append(scores, score(sep[0]), score(sep[1]), top, score(x))); got != want {
				t.Fatalf("%v: tie in a later run: Best %d, first maximum %d", p.size, got, want)
			}
			if !(later > others && later > top) {
				t.Fatalf("%v: the later run's bound %v is not above every other bound (%v) and its best score %v",
					p.size, later, others, top)
			}
			return true
		}
	}
	return false
}
