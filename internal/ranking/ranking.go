// Package ranking provides the ordinal machinery of the paper: rank
// assignment within partial rankings, the Kendall τ rank-correlation
// coefficient used throughout Section VI-B, and the distribution statistics
// (quartiles, medians, outliers, kernel density estimates) behind the box and
// violin plots of Figs. 6 and 7.
package ranking

import (
	"fmt"
	"math"
	"sort"
)

// Ranks assigns competition ranks (1 = best) to the given scores, where
// *smaller* scores rank first (scores are runtimes). Ties receive the same
// rank; the next distinct value skips the tied count ("1224" ranking).
func Ranks(scores []float64) []int {
	n := len(scores)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	ranks := make([]int, n)
	for pos := 0; pos < n; pos++ {
		i := order[pos]
		if pos > 0 && scores[i] == scores[order[pos-1]] {
			ranks[i] = ranks[order[pos-1]]
		} else {
			ranks[i] = pos + 1
		}
	}
	return ranks
}

// KendallTau computes the Kendall rank correlation coefficient between two
// score slices of equal length, following the paper's definition
// τ = (Con − Dis) / (Con + Dis): strictly concordant and discordant pairs
// only; pairs tied in either slice contribute to neither count. It returns 0
// for degenerate inputs (fewer than two items, or all pairs tied).
func KendallTau(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ranking: length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	if n < 2 {
		return 0
	}
	var con, dis int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := sign(a[i] - a[j])
			db := sign(b[i] - b[j])
			if da == 0 || db == 0 {
				continue
			}
			if da == db {
				con++
			} else {
				dis++
			}
		}
	}
	if con+dis == 0 {
		return 0
	}
	return float64(con-dis) / float64(con+dis)
}

func sign(v float64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// Summary holds the five-number summary plus outliers of a τ sample, the
// data behind one box of the Fig. 7 box plot.
type Summary struct {
	N                    int
	Min, Max             float64
	Q1, Median, Q3       float64
	Mean                 float64
	IQR                  float64
	WhiskerLo, WhiskerHi float64 // 1.5·IQR whiskers clamped to data
	Outliers             []float64
}

// Summarize computes the summary of a non-empty sample.
func Summarize(sample []float64) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	out := Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Q1:     Quantile(s, 0.25),
		Median: Quantile(s, 0.5),
		Q3:     Quantile(s, 0.75),
		Mean:   sum / float64(len(s)),
	}
	out.IQR = out.Q3 - out.Q1
	loFence := out.Q1 - 1.5*out.IQR
	hiFence := out.Q3 + 1.5*out.IQR
	out.WhiskerLo, out.WhiskerHi = out.Max, out.Min
	for _, v := range s {
		if v < loFence || v > hiFence {
			out.Outliers = append(out.Outliers, v)
			continue
		}
		if v < out.WhiskerLo {
			out.WhiskerLo = v
		}
		if v > out.WhiskerHi {
			out.WhiskerHi = v
		}
	}
	return out
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of an ascending-sorted sample
// using linear interpolation between closest ranks.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// KDE evaluates a Gaussian kernel density estimate of the sample at the
// given evaluation points — the violin outline of Fig. 7. Bandwidth follows
// Silverman's rule of thumb, with a floor for degenerate samples.
func KDE(sample, at []float64) []float64 {
	out := make([]float64, len(at))
	n := len(sample)
	if n == 0 {
		return out
	}
	var mean, sq float64
	for _, v := range sample {
		mean += v
	}
	mean /= float64(n)
	for _, v := range sample {
		d := v - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(n))
	h := 1.06 * std * math.Pow(float64(n), -0.2)
	if h < 1e-3 {
		h = 1e-3
	}
	norm := 1 / (float64(n) * h * math.Sqrt(2*math.Pi))
	for i, x := range at {
		var acc float64
		for _, v := range sample {
			z := (x - v) / h
			acc += math.Exp(-0.5 * z * z)
		}
		out[i] = acc * norm
	}
	return out
}
