package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
	"repro/internal/trainer"
)

// sampleData runs a tiny harness to get real structures for rendering.
func sampleData(t *testing.T) Data {
	t.Helper()
	h := bench.New(perfmodel.New(machine.XeonE52680v3()), 1)
	h.Budget = 32
	h.Fig4Sizes = []int{480}
	table2, err := h.Table2([]int{480})
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := h.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	fig5, err := h.Fig5([]stencil.Instance{
		{Kernel: stencil.Gradient(), Size: stencil.Size3D(128, 128, 128)},
	})
	if err != nil {
		t.Fatal(err)
	}
	fig6, err := h.Fig6([]int{480})
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := h.Fig7([]int{480})
	if err != nil {
		t.Fatal(err)
	}
	return Data{
		Table2:     table2,
		Fig4:       fig4,
		Fig4Sizes:  h.Fig4Sizes,
		Fig5:       fig5,
		Fig6:       &fig6,
		Fig7:       fig7,
		Generated:  time.Date(2026, 6, 12, 12, 0, 0, 0, time.UTC),
		MachineTag: "test <machine>",
	}
}

func TestWriteFullReport(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleData(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "Table II", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
		"<svg", "</svg>", "gradient/128x128x128", "480",
		"test &lt;machine&gt;", // escaping
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Every opened SVG closes.
	if strings.Count(out, "<svg") != strings.Count(out, "</svg>") {
		t.Error("unbalanced svg tags")
	}
	if strings.Count(out, "<html>") != 1 || !strings.Contains(out, "</html>") {
		t.Error("html structure broken")
	}
}

func TestWriteEmptyReportSkipsSections(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Data{Generated: time.Now(), MachineTag: "m"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, absent := range []string{"Table II", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7"} {
		if strings.Contains(out, absent) {
			t.Errorf("empty report contains %q", absent)
		}
	}
}

func TestFig4ChartStructure(t *testing.T) {
	d := sampleData(t)
	svg := Fig4Chart(d.Fig4, d.Fig4Sizes)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not a standalone svg")
	}
	// 17 benchmarks × (4 engines + 1 size) bars = 85 rect bars + legend swatches.
	if got := strings.Count(svg, "<rect"); got < 85 {
		t.Errorf("only %d rects in Fig. 4 chart", got)
	}
	if !strings.Contains(svg, "blur/1024x1024") {
		t.Error("benchmark labels missing")
	}
}

func TestFig5ChartStructure(t *testing.T) {
	d := sampleData(t)
	svg := Fig5Chart(d.Fig5[0], d.Fig4Sizes)
	if got := strings.Count(svg, "<polyline"); got != 4 {
		t.Errorf("polylines = %d, want 4 (engines)", got)
	}
	if !strings.Contains(svg, "stroke-dasharray") {
		t.Error("regression dashed lines missing")
	}
	if !strings.Contains(svg, "GFlop/s") {
		t.Error("axis label missing")
	}
}

func TestFig6ChartStructure(t *testing.T) {
	d := sampleData(t)
	svg := Fig6Chart(*d.Fig6)
	if got := strings.Count(svg, "<circle"); got < len(d.Fig6.Taus[480]) {
		t.Errorf("circles = %d, want ≥ %d", got, len(d.Fig6.Taus[480]))
	}
}

func TestFig6ChartEmpty(t *testing.T) {
	svg := Fig6Chart(bench.Fig6Result{Taus: map[int][]trainer.QueryTau{}})
	if !strings.Contains(svg, "</svg>") {
		t.Error("empty Fig. 6 chart should still be valid svg")
	}
}

func TestFig7ChartStructure(t *testing.T) {
	d := sampleData(t)
	svg := Fig7Chart(d.Fig7)
	if got := strings.Count(svg, "<polygon"); got != len(d.Fig7) {
		t.Errorf("violin polygons = %d, want %d", got, len(d.Fig7))
	}
	if !strings.Contains(svg, "training-set size") {
		t.Error("axis label missing")
	}
}

func TestNiceCeil(t *testing.T) {
	cases := map[float64]float64{
		0:    1,
		0.7:  0.8,
		1.0:  1.0,
		1.3:  1.5,
		7:    8,
		11:   12,
		95:   100,
		1000: 1000,
	}
	for in, want := range cases {
		if got := niceCeil(in); got != want {
			t.Errorf("niceCeil(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestEscape(t *testing.T) {
	if got := escape(`a<b>&c`); got != "a&lt;b&gt;&amp;c" {
		t.Errorf("escape = %q", got)
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		2 * time.Hour:           "2.0 h",
		90 * time.Second:        "1.5 m",
		1500 * time.Millisecond: "1.50 s",
		250 * time.Microsecond:  "0.25 ms",
	}
	for in, want := range cases {
		if got := fmtDur(in); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", in, got, want)
		}
	}
}
