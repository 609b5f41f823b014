package svmrank

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// stableOrder is the reference best-first order: a stable sort on
// descending score, so equal scores keep input order.
func stableOrder(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}

// tieHeavyScores draws n scores from a pool of few distinct values (signed
// zeros included), so most scores tie with many others.
func tieHeavyScores(rng *rand.Rand, n int) []float64 {
	pool := []float64{math.Copysign(0, -1), 0, 1, -1, 0.5, 2.25, -3}
	distinct := 1 + rng.Intn(len(pool))
	s := make([]float64, n)
	for i := range s {
		if rng.Intn(4) == 0 {
			s[i] = rng.NormFloat64()
		} else {
			s[i] = pool[rng.Intn(distinct)]
		}
	}
	return s
}

func TestOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		s := tieHeavyScores(rng, rng.Intn(200))
		if got, want := Order(s), stableOrder(s); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Order(%v) = %v, want %v", trial, s, got, want)
		}
	}
	if got := Order(nil); got == nil || len(got) != 0 {
		t.Fatalf("Order(nil) = %#v, want an empty slice", got)
	}
}

func TestTopKIsOrderPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	check := func(s []float64, k int) {
		t.Helper()
		want := Order(s)[:min(k, len(s))]
		if got := TopK(s, k); !slices.Equal(got, want) {
			t.Fatalf("TopK(%v, %d) = %v, want %v", s, k, got, want)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(120)
		if trial%10 == 0 {
			n = 1
		}
		s := tieHeavyScores(rng, n)
		for _, k := range []int{1, 2, 4, 16, n - 1, n, n + 3} {
			if k >= 1 {
				check(s, k)
			}
		}
	}
	// All-equal scores: the first k indices, in order.
	check(make([]float64, 50), 7)
	// Ascending scores: every score displaces the buffer's tail.
	asc := make([]float64, 64)
	for i := range asc {
		asc[i] = float64(i)
	}
	check(asc, 5)
}

// TestTopStreamsLikeTopK: fed a score vector in pieces of any length,
// including empty ones, Top selects what it selects from the whole vector.
func TestTopStreamsLikeTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 1000; trial++ {
		n := 1 + rng.Intn(300)
		s := tieHeavyScores(rng, n)
		for _, k := range []int{1, 4, n, n + 2} {
			top := NewTop(min(k, n))
			for lo := 0; lo < n; {
				hi := min(n, lo+rng.Intn(70))
				top.Add(s[lo:hi])
				lo = hi
			}
			if got, want := top.Indices(), TopK(s, k); !slices.Equal(got, want) {
				t.Fatalf("streamed Top(%d) of %v = %v, TopK %v", k, s, got, want)
			}
		}
	}
}

func TestTopKEmpty(t *testing.T) {
	for _, tc := range []struct {
		s []float64
		k int
	}{{nil, 3}, {[]float64{1, 2}, 0}, {[]float64{1, 2}, -1}} {
		if got := TopK(tc.s, tc.k); got == nil || len(got) != 0 {
			t.Errorf("TopK(%v, %d) = %#v, want an empty slice", tc.s, tc.k, got)
		}
	}
}

// benchScores is the size of the 3-D predefined set a hybrid tune ranks.
func benchScores() []float64 {
	rng := rand.New(rand.NewSource(1))
	s := make([]float64, 8640)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func BenchmarkOrder(b *testing.B) {
	s := benchScores()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Order(s)
	}
}

func BenchmarkTopK(b *testing.B) {
	s := benchScores()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TopK(s, 4)
	}
}
