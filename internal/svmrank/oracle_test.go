package svmrank

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/feature"
)

// The oracle below is the solver as it stood before training moved onto the
// packed live-component arena: the solver runs on the full sparse vectors,
// with (a − b)·w as a.Dot(w) − b.Dot(w) and every update as scale·a followed
// by −scale·b over a dense weight vector of feature.Dim entries. Train must
// reproduce it bit for bit.

func oracleDiffDot(w []float64, a, b feature.Vector) float64 { return a.Dot(w) - b.Dot(w) }

func oracleAddInto(w []float64, v feature.Vector, scale float64) {
	for i, idx := range v.Idx {
		if int(idx) >= len(w) {
			break
		}
		w[idx] += scale * v.Val[i]
	}
}

func oracleAddDiffInto(w []float64, a, b feature.Vector, scale float64) {
	oracleAddInto(w, a, scale)
	oracleAddInto(w, b, -scale)
}

// oracleTrain is Train on the oracle solver, minus the timing.
func oracleTrain(d *Dataset, opt Options) ([]float64, Stats) {
	opt = opt.withDefaults()
	pairs := GeneratePairs(d, opt.Pairs)
	w, epochs := oracleDCD(d, pairs, opt)
	stats := Stats{Pairs: len(pairs), Epochs: epochs}
	var reg float64
	for _, v := range w {
		reg += v * v
	}
	obj := 0.5 * reg
	for _, p := range pairs {
		margin := oracleDiffDot(w, d.Examples[p.I].X, d.Examples[p.J].X)
		if margin < 1 {
			stats.Violations++
			obj += opt.C * (1 - margin)
		}
	}
	stats.Objective = obj
	return w, stats
}

func oracleDCD(d *Dataset, pairs []Pair, opt Options) ([]float64, int) {
	U := opt.C
	w := make([]float64, feature.Dim)
	alpha := make([]float64, len(pairs))
	qdiag := make([]float64, len(pairs))
	for p, pr := range pairs {
		qdiag[p] = feature.DiffSquaredNorm(d.Examples[pr.I].X, d.Examples[pr.J].X)
		if qdiag[p] == 0 {
			qdiag[p] = math.Inf(1)
		}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	epoch := 0
	for ; epoch < opt.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		maxViolation := 0.0
		for _, p := range order {
			pr := pairs[p]
			xi, xj := d.Examples[pr.I].X, d.Examples[pr.J].X
			g := oracleDiffDot(w, xi, xj) - 1
			pg := g
			if alpha[p] == 0 && g > 0 {
				pg = 0
			} else if alpha[p] == U && g < 0 {
				pg = 0
			}
			if math.Abs(pg) > maxViolation {
				maxViolation = math.Abs(pg)
			}
			if pg == 0 || math.IsInf(qdiag[p], 1) {
				continue
			}
			old := alpha[p]
			na := old - g/qdiag[p]
			if na < 0 {
				na = 0
			} else if na > U {
				na = U
			}
			if na == old {
				continue
			}
			alpha[p] = na
			oracleAddDiffInto(w, xi, xj, na-old)
		}
		if maxViolation < tol {
			epoch++
			break
		}
	}
	return w, epoch
}

// packingDataset builds random queries whose vectors exercise every case of
// the live-component rule: a head shared by the query except where an
// example perturbs it (so some head indices are live), tail values drawn
// from a small set (so some tail indices hold equal values across a pair and
// are dead), and components at and past feature.Dim that Dot ignores.
func packingDataset(rng *rand.Rand, queries, perQuery int) *Dataset {
	const headLen, tailLo = 40, 360
	levels := []float64{0, 0.25, 0.5, 1, -0.75, 1e-3}
	d := &Dataset{}
	for q := 0; q < queries; q++ {
		head := make([]float64, headLen)
		for i := range head {
			if rng.Intn(3) == 0 {
				head[i] = rng.Float64()
			}
		}
		query := string(rune('a' + q))
		for e := 0; e < perQuery; e++ {
			var x feature.Vector
			for i, v := range head {
				if rng.Intn(25) == 0 {
					v = rng.Float64() // this example's head differs from its query's
				}
				if v != 0 {
					x.Idx = append(x.Idx, int32(i))
					x.Val = append(x.Val, v)
				}
			}
			for i := tailLo; i < feature.Dim; i++ {
				if rng.Intn(4) == 0 {
					x.Idx = append(x.Idx, int32(i))
					x.Val = append(x.Val, levels[rng.Intn(len(levels))])
				}
			}
			for i := feature.Dim; i < feature.Dim+3; i++ {
				if rng.Intn(2) == 0 {
					x.Idx = append(x.Idx, int32(i))
					x.Val = append(x.Val, rng.Float64())
				}
			}
			d.Add(Example{Query: query, X: x, Y: float64(rng.Intn(12))})
		}
	}
	return d
}

func requireBitIdentical(t *testing.T, name string, m *Model, s Stats, w []float64, want Stats) {
	t.Helper()
	if len(m.W) != len(w) {
		t.Fatalf("%s: len(W) = %d, oracle %d", name, len(m.W), len(w))
	}
	for i := range w {
		if math.Float64bits(m.W[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: W[%d] = %v (%#x), oracle %v (%#x)", name, i, m.W[i], math.Float64bits(m.W[i]), w[i], math.Float64bits(w[i]))
		}
	}
	if math.Float64bits(s.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: Objective = %v, oracle %v", name, s.Objective, want.Objective)
	}
	if s.Violations != want.Violations || s.Epochs != want.Epochs || s.Pairs != want.Pairs {
		t.Fatalf("%s: (violations, epochs, pairs) = (%d, %d, %d), oracle (%d, %d, %d)",
			name, s.Violations, s.Epochs, s.Pairs, want.Violations, want.Epochs, want.Pairs)
	}
}

func TestTrainMatchesOracleBitForBit(t *testing.T) {
	// Six random datasets of packingDataset, then real encodings, whose
	// whole head is dead.
	for seed := int64(1); seed <= 7; seed++ {
		var d *Dataset
		if seed < 7 {
			rng := rand.New(rand.NewSource(seed))
			d = packingDataset(rng, 2+rng.Intn(5), 6+rng.Intn(20))
		} else {
			d = synthDataset(6, 40, seed)
		}
		for _, strat := range []PairStrategy{AdjacentPairs, FullPairs} {
			opt := Options{C: 3, Epochs: 12, Seed: seed,
				Pairs: PairOptions{Strategy: strat, Window: 3}}
			if seed%2 == 0 {
				// A small per-pair C: 0.05 spread over the queries.
				opt.C = 0.05 / float64(len(d.Queries()))
			}
			m, s, err := Train(d, opt)
			if err != nil {
				t.Fatal(err)
			}
			w, want := oracleTrain(d, opt)
			requireBitIdentical(t, strat.String(), m, s, w, want)
		}
	}
}
