// Package dsl implements a small PATUS-style stencil description language,
// the front end through which external users feed their own stencils to the
// autotuner (the paper's workflow starts from DSL source; Sec. V-A).
//
// The format is line-oriented:
//
//	# 3-D seven-point laplacian
//	stencil laplacian {
//	    dims    3
//	    type    double
//	    buffers 1
//	    point   ( 0, 0, 0) -6.0
//	    point   ( 1, 0, 0)  1.0
//	    point   (-1, 0, 0)  1.0
//	    point   ( 0, 1, 0)  1.0  buffer 0
//	    ...
//	}
//
// A file may contain several stencil blocks. Parsed definitions convert both
// into the learning-side model (stencil.Kernel) and into an executable
// kernel (exec.LinearKernel).
package dsl

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/exec"
	"repro/internal/shape"
	"repro/internal/stencil"
)

// PointSpec is one weighted access in a definition.
type PointSpec struct {
	Offset shape.Point
	Weight float64
	Buffer int
}

// Definition is one parsed stencil block.
type Definition struct {
	Name    string
	Dims    int
	Type    stencil.DataType
	Buffers int
	Points  []PointSpec
}

// Validate checks structural consistency.
func (d *Definition) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("dsl: stencil without a name")
	}
	if d.Dims != 2 && d.Dims != 3 {
		return fmt.Errorf("dsl: stencil %q: dims %d (want 2 or 3)", d.Name, d.Dims)
	}
	if d.Buffers < 1 {
		return fmt.Errorf("dsl: stencil %q: %d buffers", d.Name, d.Buffers)
	}
	if len(d.Points) == 0 {
		return fmt.Errorf("dsl: stencil %q: no points", d.Name)
	}
	for _, p := range d.Points {
		if d.Dims == 2 && p.Offset.Z != 0 {
			return fmt.Errorf("dsl: stencil %q: 2-D stencil accesses z offset %d", d.Name, p.Offset.Z)
		}
		if p.Buffer < 0 || p.Buffer >= d.Buffers {
			return fmt.Errorf("dsl: stencil %q: point %v references buffer %d of %d",
				d.Name, p.Offset, p.Buffer, d.Buffers)
		}
	}
	return nil
}

// Kernel converts the definition into the learning-side model: the shape is
// the sum of per-buffer access patterns (Sec. III-A).
func (d *Definition) Kernel() *stencil.Kernel {
	s := shape.New()
	for _, p := range d.Points {
		s.Add(p.Offset, 1)
	}
	return &stencil.Kernel{
		Name:    d.Name,
		Shape:   s,
		Buffers: d.Buffers,
		Type:    d.Type,
	}
}

// Executable converts the definition into a runnable linear kernel.
func (d *Definition) Executable() *exec.LinearKernel {
	k := &exec.LinearKernel{Name: d.Name, Buffers: d.Buffers}
	for _, p := range d.Points {
		k.Terms = append(k.Terms, exec.Term{Buffer: p.Buffer, Offset: p.Offset, Weight: p.Weight})
	}
	return k
}

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("dsl: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...interface{}) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse reads every stencil definition in the source.
func Parse(r io.Reader) ([]*Definition, error) {
	sc := bufio.NewScanner(r)
	var defs []*Definition
	var cur *Definition
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := tokenize(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "stencil":
			if cur != nil {
				return nil, errf(lineNo, "nested stencil block")
			}
			if len(fields) != 3 || fields[2] != "{" {
				return nil, errf(lineNo, "want 'stencil <name> {', got %q", line)
			}
			cur = &Definition{Name: fields[1], Buffers: 1, Dims: 3}
		case "}":
			if cur == nil {
				return nil, errf(lineNo, "unmatched '}'")
			}
			if err := cur.Validate(); err != nil {
				return nil, errf(lineNo, "%v", err)
			}
			defs = append(defs, cur)
			cur = nil
		case "dims":
			if cur == nil {
				return nil, errf(lineNo, "'dims' outside stencil block")
			}
			v, err := strconv.Atoi(field(fields, 1))
			if err != nil {
				return nil, errf(lineNo, "bad dims %q", field(fields, 1))
			}
			cur.Dims = v
		case "type":
			if cur == nil {
				return nil, errf(lineNo, "'type' outside stencil block")
			}
			dt, err := stencil.ParseDataType(field(fields, 1))
			if err != nil {
				return nil, errf(lineNo, "bad type: %v", err)
			}
			cur.Type = dt
		case "buffers":
			if cur == nil {
				return nil, errf(lineNo, "'buffers' outside stencil block")
			}
			v, err := strconv.Atoi(field(fields, 1))
			if err != nil {
				return nil, errf(lineNo, "bad buffers %q", field(fields, 1))
			}
			cur.Buffers = v
		case "point":
			if cur == nil {
				return nil, errf(lineNo, "'point' outside stencil block")
			}
			p, err := parsePoint(fields[1:], lineNo)
			if err != nil {
				return nil, err
			}
			cur.Points = append(cur.Points, p)
		default:
			return nil, errf(lineNo, "unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dsl: reading source: %w", err)
	}
	if cur != nil {
		return nil, errf(lineNo, "unterminated stencil block %q", cur.Name)
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("dsl: no stencil definitions found")
	}
	return defs, nil
}

// ParseString parses DSL source from a string.
func ParseString(src string) ([]*Definition, error) { return Parse(strings.NewReader(src)) }

// field returns fields[i] or "".
func field(fields []string, i int) string {
	if i < len(fields) {
		return fields[i]
	}
	return ""
}

// tokenize splits a line into tokens, keeping "(x,y,z)" coordinates as a
// single token even when written with inner spaces.
func tokenize(line string) []string {
	var tokens []string
	i := 0
	for i < len(line) {
		switch {
		case line[i] == ' ' || line[i] == '\t':
			i++
		case line[i] == '(':
			j := strings.IndexByte(line[i:], ')')
			if j < 0 {
				// Unterminated paren: emit as-is; parsePoint reports it.
				tokens = append(tokens, line[i:])
				return tokens
			}
			tokens = append(tokens, strings.ReplaceAll(line[i:i+j+1], " ", ""))
			i += j + 1
		default:
			j := i
			for j < len(line) && line[j] != ' ' && line[j] != '\t' && line[j] != '(' {
				j++
			}
			tokens = append(tokens, line[i:j])
			i = j
		}
	}
	return tokens
}

// parsePoint parses: (x,y,z) <weight> [buffer <b>]
func parsePoint(fields []string, lineNo int) (PointSpec, error) {
	var p PointSpec
	if len(fields) < 2 {
		return p, errf(lineNo, "want 'point (x,y,z) weight [buffer b]'")
	}
	coord := fields[0]
	if !strings.HasPrefix(coord, "(") || !strings.HasSuffix(coord, ")") {
		return p, errf(lineNo, "bad coordinate %q", coord)
	}
	parts := strings.Split(coord[1:len(coord)-1], ",")
	if len(parts) != 3 {
		return p, errf(lineNo, "coordinate %q must have three components", coord)
	}
	vals := make([]int, 3)
	for i, s := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return p, errf(lineNo, "bad coordinate component %q", s)
		}
		vals[i] = v
	}
	p.Offset = shape.Point{X: vals[0], Y: vals[1], Z: vals[2]}
	w, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return p, errf(lineNo, "bad weight %q", fields[1])
	}
	p.Weight = w
	if len(fields) >= 3 {
		if fields[2] != "buffer" || len(fields) < 4 {
			return p, errf(lineNo, "trailing tokens %v (want 'buffer <b>')", fields[2:])
		}
		b, err := strconv.Atoi(fields[3])
		if err != nil {
			return p, errf(lineNo, "bad buffer index %q", fields[3])
		}
		p.Buffer = b
	}
	return p, nil
}
