package dsl

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/grid"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

const laplacianSrc = `
# 3-D seven-point laplacian
stencil laplacian {
    dims    3
    type    double
    buffers 1
    point   ( 0, 0, 0) -6.0
    point   ( 1, 0, 0)  1.0
    point   (-1, 0, 0)  1.0
    point   ( 0, 1, 0)  1.0
    point   ( 0,-1, 0)  1.0
    point   ( 0, 0, 1)  1.0
    point   ( 0, 0,-1)  1.0
}
`

func TestParseLaplacian(t *testing.T) {
	defs, err := ParseString(laplacianSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 1 {
		t.Fatalf("defs = %d", len(defs))
	}
	d := defs[0]
	if d.Name != "laplacian" || d.Dims != 3 || d.Type != stencil.Float64 || d.Buffers != 1 {
		t.Errorf("header wrong: %+v", d)
	}
	if len(d.Points) != 7 {
		t.Errorf("points = %d, want 7", len(d.Points))
	}
	k := d.Kernel()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if k.Shape.Size() != 7 || k.Shape.MaxOffset() != 1 {
		t.Errorf("kernel shape wrong: %d points, offset %d", k.Shape.Size(), k.Shape.MaxOffset())
	}
}

func TestParsedExecutableMatchesBuiltin(t *testing.T) {
	// The DSL laplacian must produce the same results as the textbook one.
	defs, err := ParseString(laplacianSrc)
	if err != nil {
		t.Fatal(err)
	}
	parsed := defs[0].Executable()
	builtin := exec.Executable(stencil.Laplacian())

	r := exec.NewRunner()
	mk := func() (*grid.Grid[float64], []*grid.Grid[float64]) {
		out := grid.New(20, 20, 20, 1, 1)
		in := grid.New(20, 20, 20, 1, 1)
		in.FillPattern()
		return out, []*grid.Grid[float64]{in}
	}
	outA, insA := mk()
	outB, insB := mk()
	tv := tunespace.Vector{Bx: 8, By: 8, Bz: 4, U: 2, C: 2}
	if err := r.Run(parsed, outA, insA, tv); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(builtin, outB, insB, tv); err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(outA, outB); d > 1e-12 {
		t.Errorf("DSL and builtin laplacian differ by %g", d)
	}
}

func TestParseMultipleBlocksAndBuffers(t *testing.T) {
	src := `
stencil div {
    dims 3
    type double
    buffers 3
    point (1,0,0)  0.5 buffer 0
    point (-1,0,0) -0.5 buffer 0
    point (0,1,0)  0.5 buffer 1
    point (0,-1,0) -0.5 buffer 1
    point (0,0,1)  0.5 buffer 2
    point (0,0,-1) -0.5 buffer 2
}
stencil blur2 {
    dims 2
    type float
    buffers 1
    point (0,0,0) 0.5
    point (1,0,0) 0.25
    point (-1,0,0) 0.25
}
`
	defs, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 2 {
		t.Fatalf("defs = %d", len(defs))
	}
	if defs[0].Buffers != 3 || defs[0].Points[2].Buffer != 1 {
		t.Errorf("buffer parsing wrong: %+v", defs[0].Points)
	}
	if defs[1].Dims != 2 || defs[1].Type != stencil.Float32 {
		t.Errorf("second block wrong: %+v", defs[1])
	}
	for _, d := range defs {
		if err := d.Executable().Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":              "",
		"no-blocks":          "# just a comment\n",
		"bad-header":         "stencil foo\ndims 3\n}",
		"nested":             "stencil a {\nstencil b {\n}\n}",
		"unmatched-close":    "}",
		"unterminated":       "stencil a {\ndims 3\n",
		"bad-dims":           "stencil a {\ndims nine\npoint (0,0,0) 1\n}",
		"bad-type":           "stencil a {\ntype quad\npoint (0,0,0) 1\n}",
		"bad-buffers":        "stencil a {\nbuffers x\npoint (0,0,0) 1\n}",
		"bad-coord":          "stencil a {\npoint 0,0,0 1\n}",
		"bad-coord-arity":    "stencil a {\npoint (0,0) 1\n}",
		"bad-coord-val":      "stencil a {\npoint (a,0,0) 1\n}",
		"bad-weight":         "stencil a {\npoint (0,0,0) heavy\n}",
		"missing-weight":     "stencil a {\npoint (0,0,0)\n}",
		"bad-buffer-suffix":  "stencil a {\npoint (0,0,0) 1 buf 2\n}",
		"bad-buffer-index":   "stencil a {\nbuffers 2\npoint (0,0,0) 1 buffer x\n}",
		"unknown-directive":  "stencil a {\ncolour blue\n}",
		"dims4":              "stencil a {\ndims 4\npoint (0,0,0) 1\n}",
		"no-points":          "stencil a {\ndims 3\n}",
		"buffer-oob":         "stencil a {\nbuffers 1\npoint (0,0,0) 1 buffer 3\n}",
		"2d-z-access":        "stencil a {\ndims 2\npoint (0,0,1) 1\n}",
		"unterminated-paren": "stencil a {\npoint (0,0,0 1\n}",
	}
	for name, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestParseErrorLineNumbers(t *testing.T) {
	_, err := ParseString("stencil a {\n    dims 3\n    point (0,0,0) bad\n}")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 3 {
		t.Errorf("line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Errorf("message %q missing line", pe.Error())
	}
}

func TestDefaultsAppliedByParser(t *testing.T) {
	// dims defaults to 3, buffers to 1, type to float.
	defs, err := ParseString("stencil d {\npoint (0,0,0) 1\n}")
	if err != nil {
		t.Fatal(err)
	}
	d := defs[0]
	if d.Dims != 3 || d.Buffers != 1 || d.Type != stencil.Float32 {
		t.Errorf("defaults wrong: %+v", d)
	}
}

func TestTokenizeCoordinatesWithSpaces(t *testing.T) {
	toks := tokenize("point ( 1, -2, 0 )  3.5  buffer 1")
	want := []string{"point", "(1,-2,0)", "3.5", "buffer", "1"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
}
