package ranking

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRanksSimple(t *testing.T) {
	// Runtimes: smaller is better (rank 1).
	scores := []float64{12, 13, 20}
	want := []int{1, 2, 3}
	got := Ranks(scores)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksUnsortedInput(t *testing.T) {
	scores := []float64{36, 10, 35}
	want := []int{3, 1, 2} // matches Table I instance q2 ordering
	got := Ranks(scores)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksTies(t *testing.T) {
	scores := []float64{5, 3, 3, 7}
	got := Ranks(scores)
	want := []int{3, 1, 1, 4} // competition ranking: tie at 1, next is 3
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksEmpty(t *testing.T) {
	if got := Ranks(nil); len(got) != 0 {
		t.Errorf("Ranks(nil) = %v", got)
	}
}

func TestKendallTauPerfectAgreement(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if got := KendallTau(a, a); got != 1 {
		t.Errorf("τ(r,r) = %v, want 1", got)
	}
}

func TestKendallTauPerfectDisagreement(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{5, 4, 3, 2, 1}
	if got := KendallTau(a, b); got != -1 {
		t.Errorf("τ(r,rev r) = %v, want -1", got)
	}
}

func TestKendallTauKnownValue(t *testing.T) {
	// Classic example: one discordant pair among C(4,2)=6.
	a := []float64{1, 2, 3, 4}
	b := []float64{1, 2, 4, 3}
	want := (5.0 - 1.0) / 6.0
	if got := KendallTau(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("τ = %v, want %v", got, want)
	}
}

func TestKendallTauMonotoneTransformInvariant(t *testing.T) {
	a := []float64{3, 1, 4, 1.5, 9, 2.6}
	b := make([]float64, len(a))
	for i, v := range a {
		b[i] = math.Exp(v) // strictly increasing transform
	}
	if got := KendallTau(a, b); got != 1 {
		t.Errorf("τ under monotone transform = %v, want 1", got)
	}
}

func TestKendallTauDegenerate(t *testing.T) {
	if got := KendallTau([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("singleton τ = %v, want 0", got)
	}
	if got := KendallTau(nil, nil); got != 0 {
		t.Errorf("empty τ = %v, want 0", got)
	}
	// All ties in one slice: no orderable pairs.
	if got := KendallTau([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("all-ties τ = %v, want 0", got)
	}
}

func TestKendallTauPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KendallTau([]float64{1}, []float64{1, 2})
}

func TestPropertyTauSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(10))
			b[i] = float64(rng.Intn(10))
		}
		return math.Abs(KendallTau(a, b)-KendallTau(b, a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTauAntisymmetricUnderNegation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		a := make([]float64, n)
		b := make([]float64, n)
		neg := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			neg[i] = -b[i]
		}
		return math.Abs(KendallTau(a, b)+KendallTau(a, neg)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTauBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(5))
			b[i] = float64(rng.Intn(5))
		}
		tau := KendallTau(a, b)
		return tau >= -1 && tau <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.5, 1}, {1.5, 5},
	}
	for _, c := range cases {
		if got := Quantile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.5); got != 7 {
		t.Errorf("singleton quantile = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Interpolation between ranks.
	if got := Quantile([]float64{0, 10}, 0.25); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("interpolated quantile = %v, want 2.5", got)
	}
}

func TestSummarize(t *testing.T) {
	sample := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(sample)
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Errorf("N/Min/Max wrong: %+v", s)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Errorf("Median = %v, want 4.5", s.Median)
	}
	if s.Q1 > s.Median || s.Median > s.Q3 {
		t.Errorf("quartiles out of order: %+v", s)
	}
}

func TestSummarizeOutliers(t *testing.T) {
	sample := []float64{1, 1.1, 1.2, 1.05, 0.95, 1.15, 50} // 50 is a wild outlier
	s := Summarize(sample)
	if len(s.Outliers) != 1 || s.Outliers[0] != 50 {
		t.Errorf("Outliers = %v, want [50]", s.Outliers)
	}
	if s.WhiskerHi >= 50 {
		t.Errorf("whisker %v should exclude the outlier", s.WhiskerHi)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Errorf("empty summary N = %d", s.N)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	sample := []float64{3, 1, 2}
	Summarize(sample)
	if sample[0] != 3 || sample[1] != 1 || sample[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sample := make([]float64, 200)
	for i := range sample {
		sample[i] = rng.NormFloat64()
	}
	// Integrate over a wide grid with the trapezoid rule.
	const n = 2000
	at := make([]float64, n)
	for i := range at {
		at[i] = -8 + 16*float64(i)/float64(n-1)
	}
	dens := KDE(sample, at)
	var integral float64
	for i := 1; i < n; i++ {
		integral += 0.5 * (dens[i] + dens[i-1]) * (at[i] - at[i-1])
	}
	if math.Abs(integral-1) > 0.02 {
		t.Errorf("KDE integral = %v, want ~1", integral)
	}
}

func TestKDEPeaksNearMode(t *testing.T) {
	sample := []float64{0.5, 0.5, 0.5, 0.52, 0.48}
	at := []float64{-1, 0, 0.5, 1, 2}
	dens := KDE(sample, at)
	maxIdx := 0
	for i, d := range dens {
		if d > dens[maxIdx] {
			maxIdx = i
		}
	}
	if at[maxIdx] != 0.5 {
		t.Errorf("KDE mode at %v, want 0.5", at[maxIdx])
	}
}

func TestKDEEmptySample(t *testing.T) {
	dens := KDE(nil, []float64{0, 1})
	for _, d := range dens {
		if d != 0 {
			t.Errorf("empty-sample KDE = %v", dens)
		}
	}
}

func TestPropertyRanksArePermutationConsistent(t *testing.T) {
	// Ranks of distinct scores are a permutation of 1..n and order-consistent.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		scores := rng.Perm(n)
		fs := make([]float64, n)
		for i, v := range scores {
			fs[i] = float64(v)
		}
		ranks := Ranks(fs)
		seen := make([]bool, n+1)
		for _, r := range ranks {
			if r < 1 || r > n || seen[r] {
				return false
			}
			seen[r] = true
		}
		// Order consistency.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return fs[idx[a]] < fs[idx[b]] })
		for pos, i := range idx {
			if ranks[i] != pos+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
