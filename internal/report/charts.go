package report

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bench"
)

// Chart geometry shared by all figures.
const (
	chartW  = 960
	chartH  = 420
	marginL = 60
	marginR = 20
	marginT = 30
	marginB = 110
	plotW   = chartW - marginL - marginR
	plotH   = chartH - marginT - marginB
)

// fig4Engines is the bar order within each benchmark group.
var fig4Engines = []string{
	"genetic algorithm", "differential evolution", "evolutive strategy", "sGA",
}

// Fig4Chart renders the grouped speedup bars of Fig. 4.
func Fig4Chart(rows []bench.Fig4Row, trainSizes []int) string {
	c := newCanvas(chartW, chartH)
	c.text(marginL, 18, 14, "start", "Fig. 4 — speedup vs GA-1024 base configuration")

	series := len(fig4Engines) + len(trainSizes)
	maxV := 0.0
	for _, r := range rows {
		for _, e := range fig4Engines {
			maxV = math.Max(maxV, r.Search[e])
		}
		for _, s := range trainSizes {
			maxV = math.Max(maxV, r.Regression[s])
		}
	}
	yMax := niceCeil(maxV)
	yOf := func(v float64) float64 { return marginT + plotH*(1-v/yMax) }

	// Axes and gridlines.
	c.line(marginL, marginT, marginL, marginT+plotH, "#333", 1)
	c.line(marginL, marginT+plotH, marginL+plotW, marginT+plotH, "#333", 1)
	for _, tick := range []float64{0.25, 0.5, 0.75, 1.0, 1.25} {
		if tick > yMax {
			break
		}
		y := yOf(tick)
		c.line(marginL, y, marginL+plotW, y, "#ddd", 0.5)
		c.text(marginL-6, y+4, 10, "end", fmt.Sprintf("%.2f", tick))
	}
	// Emphasize the 1.0 base line.
	c.dashedLine(marginL, yOf(1), marginL+plotW, yOf(1), "#888", 1)

	group := float64(plotW) / float64(len(rows))
	barW := group * 0.8 / float64(series)
	for gi, r := range rows {
		x0 := marginL + group*float64(gi) + group*0.1
		si := 0
		for ei, e := range fig4Engines {
			v := r.Search[e]
			c.rect(x0+barW*float64(si), yOf(v), barW*0.9, marginT+plotH-yOf(v), color(ei))
			si++
		}
		for ti, s := range trainSizes {
			v := r.Regression[s]
			c.rect(x0+barW*float64(si), yOf(v), barW*0.9, marginT+plotH-yOf(v), color(len(fig4Engines)+ti))
			si++
		}
		c.vtext(x0+group*0.4, marginT+plotH+14, 9, r.Benchmark)
	}
	legendFig4(c, trainSizes)
	return c.String()
}

func legendFig4(c *svgCanvas, trainSizes []int) {
	x := marginL
	y := float64(chartH - 8)
	idx := 0
	put := func(label string) {
		c.rect(float64(x), y-9, 10, 10, color(idx))
		c.text(float64(x)+14, y, 10, "start", label)
		x += 14 + 7*len(label) + 16
		idx++
	}
	for _, e := range fig4Engines {
		put(e)
	}
	for _, s := range trainSizes {
		put(fmt.Sprintf("ord.regr %d", s))
	}
}

// Fig5Chart renders one convergence panel: GFlop/s vs evaluations (log2 x)
// with ordinal-regression horizontal lines.
func Fig5Chart(s bench.Fig5Series, trainSizes []int) string {
	c := newCanvas(chartW, chartH)
	c.text(marginL, 18, 14, "start", "Fig. 5 — "+s.Benchmark+": performance vs evaluations")

	maxV := 0.0
	for _, curve := range s.Curves {
		for _, p := range curve {
			maxV = math.Max(maxV, p.GFlops)
		}
	}
	for _, v := range s.Regression {
		maxV = math.Max(maxV, v)
	}
	yMax := niceCeil(maxV * 1.05)
	yOf := func(v float64) float64 { return marginT + plotH*(1-v/yMax) }
	// x: log2(evaluations) over the curve of the first engine.
	maxEval := 1
	for _, curve := range s.Curves {
		for _, p := range curve {
			if p.Evaluations > maxEval {
				maxEval = p.Evaluations
			}
		}
	}
	lmax := math.Log2(float64(maxEval))
	xOf := func(evals int) float64 {
		return marginL + plotW*math.Log2(float64(evals))/lmax
	}

	c.line(marginL, marginT, marginL, marginT+plotH, "#333", 1)
	c.line(marginL, marginT+plotH, marginL+plotW, marginT+plotH, "#333", 1)
	for e := 1; e <= maxEval; e *= 2 {
		x := xOf(e)
		c.line(x, marginT+plotH, x, marginT+plotH+4, "#333", 1)
		c.text(x, marginT+plotH+16, 10, "middle", fmt.Sprintf("%d", e))
	}
	for i := 0; i <= 4; i++ {
		v := yMax * float64(i) / 4
		y := yOf(v)
		c.line(marginL, y, marginL+plotW, y, "#ddd", 0.5)
		c.text(marginL-6, y+4, 10, "end", fmt.Sprintf("%.1f", v))
	}
	c.text(marginL+plotW/2, marginT+plotH+32, 11, "middle", "evaluations")
	c.text(14, marginT+plotH/2, 11, "middle", "GFlop/s")

	for ei, e := range fig4Engines {
		curve := s.Curves[e]
		pts := make([][2]float64, 0, len(curve))
		for _, p := range curve {
			pts = append(pts, [2]float64{xOf(p.Evaluations), yOf(p.GFlops)})
		}
		c.polyline(pts, color(ei), 1.8)
	}
	for ti, size := range trainSizes {
		v := s.Regression[size]
		c.dashedLine(marginL, yOf(v), marginL+plotW, yOf(v), color(len(fig4Engines)+ti), 1.4)
	}
	legendFig4(c, trainSizes)
	return c.String()
}

// Fig6Chart renders per-instance τ scatter for each training size.
func Fig6Chart(res bench.Fig6Result) string {
	c := newCanvas(chartW, chartH)
	c.text(marginL, 18, 14, "start", "Fig. 6 — Kendall τ per training instance")

	sizes := make([]int, 0, len(res.Taus))
	for s := range res.Taus {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)

	n := 0
	for _, s := range sizes {
		if len(res.Taus[s]) > n {
			n = len(res.Taus[s])
		}
	}
	if n == 0 {
		return c.String()
	}
	yOf := func(tau float64) float64 { return marginT + plotH*(1-(tau+1)/2) }
	xOf := func(i int) float64 { return marginL + plotW*float64(i)/float64(n) }

	c.line(marginL, marginT, marginL, marginT+plotH, "#333", 1)
	for _, tick := range []float64{-1, -0.5, 0, 0.5, 1} {
		y := yOf(tick)
		c.line(marginL, y, marginL+plotW, y, "#ddd", 0.5)
		c.text(marginL-6, y+4, 10, "end", fmt.Sprintf("%.1f", tick))
	}
	c.text(marginL+plotW/2, marginT+plotH+24, 11, "middle", "training instance")
	for si, s := range sizes {
		for i, qt := range res.Taus[s] {
			c.circle(xOf(i), yOf(qt.Tau), 2, color(si))
		}
		c.rect(float64(marginL+si*180), float64(chartH-16), 10, 10, color(si))
		c.text(float64(marginL+si*180+14), float64(chartH-7), 10, "start", fmt.Sprintf("TS size %d", s))
	}
	return c.String()
}

// Fig7Chart renders box plots with violin outlines per training size.
func Fig7Chart(rows []bench.Fig7Row) string {
	c := newCanvas(chartW, chartH)
	c.text(marginL, 18, 14, "start", "Fig. 7 — Kendall τ distribution by training-set size")

	yOf := func(tau float64) float64 { return marginT + plotH*(1-(tau+1)/2) }
	c.line(marginL, marginT, marginL, marginT+plotH, "#333", 1)
	for _, tick := range []float64{-1, -0.5, 0, 0.5, 1} {
		y := yOf(tick)
		c.line(marginL, y, marginL+plotW, y, "#ddd", 0.5)
		c.text(marginL-6, y+4, 10, "end", fmt.Sprintf("%.1f", tick))
	}

	grid := bench.DensityGrid()
	group := float64(plotW) / float64(len(rows))
	halfW := group * 0.32
	for i, r := range rows {
		cx := marginL + group*(float64(i)+0.5)
		// Violin: mirrored density polygon.
		maxD := 0.0
		for _, d := range r.Density {
			maxD = math.Max(maxD, d)
		}
		if maxD > 0 {
			var poly [][2]float64
			for gi, tau := range grid {
				poly = append(poly, [2]float64{cx - halfW*r.Density[gi]/maxD, yOf(tau)})
			}
			for gi := len(grid) - 1; gi >= 0; gi-- {
				poly = append(poly, [2]float64{cx + halfW*r.Density[gi]/maxD, yOf(grid[gi])})
			}
			c.polygon(poly, "#ccbb44", 0.5)
		}
		// Box plot.
		s := r.Summary
		boxW := halfW * 0.5
		c.rect(cx-boxW/2, yOf(s.Q3), boxW, yOf(s.Q1)-yOf(s.Q3), "#4477aa")
		c.line(cx-boxW/2, yOf(s.Median), cx+boxW/2, yOf(s.Median), "#fff", 2)
		c.line(cx, yOf(s.WhiskerHi), cx, yOf(s.Q3), "#333", 1)
		c.line(cx, yOf(s.Q1), cx, yOf(s.WhiskerLo), "#333", 1)
		for _, o := range s.Outliers {
			c.circle(cx, yOf(o), 2, "#ee6677")
		}
		c.circle(cx, yOf(s.Median), 3, "#ee6677")
		c.text(cx, marginT+plotH+16, 10, "middle", fmt.Sprintf("%d", r.Size))
	}
	c.text(marginL+plotW/2, marginT+plotH+34, 11, "middle", "training-set size")
	return c.String()
}
