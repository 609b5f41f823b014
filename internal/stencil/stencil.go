// Package stencil defines the algebraic stencil model of Section III of the
// paper: a kernel k = (shape, buffers, dtype), an instance q = (k, size), and
// an execution (k, size, tuning). It also provides the nine benchmark kernels
// of Table III and the paper's training/testing input sizes.
package stencil

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/shape"
)

// DataType is the element type of a stencil's buffers. The paper assumes
// homogeneous buffer types and encodes float32 as 0 and float64 as 1 in the
// feature vector. The type is honored by real execution, not just
// featurized: exec.Measurer allocates workspaces of this type and times the
// matching Runner instantiation, so Float32 stencils are executed, measured
// and benchmarked in genuine single precision.
type DataType int

// Supported buffer element types.
const (
	Float32 DataType = iota
	Float64
)

// Bytes returns the size in bytes of one element.
func (d DataType) Bytes() int {
	if d == Float64 {
		return 8
	}
	return 4
}

func (d DataType) String() string {
	if d == Float64 {
		return "double"
	}
	return "float"
}

// ParseDataType parses a dtype name: "float" or "float32" for Float32,
// "double" or "float64" for Float64. It is the one dtype parser of the wire
// schema, the observation log and the DSL.
func ParseDataType(s string) (DataType, error) {
	switch s {
	case "float", "float32":
		return Float32, nil
	case "double", "float64":
		return Float64, nil
	}
	return 0, fmt.Errorf("unknown dtype %q (want float or double)", s)
}

// FeatureValue returns the paper's [0,1] encoding of the type (Sec. III-A.2).
func (d DataType) FeatureValue() float64 {
	if d == Float64 {
		return 1
	}
	return 0
}

// Kernel is the static description k = (s, b, d) of a stencil computation:
// its access pattern, the number of input buffers read, and their element
// type. Name is informational only and never enters the feature vector.
type Kernel struct {
	Name    string
	Shape   *shape.Shape
	Buffers int
	Type    DataType
	// FlopsPerPoint is the floating-point work per updated cell, used for
	// GFlop/s reporting (Fig. 5). When zero, it defaults to one multiply-add
	// per access: 2 * Shape.TotalAccesses().
	FlopsPerPoint int
}

// Dims returns 2 or 3 depending on the shape.
func (k *Kernel) Dims() int { return k.Shape.Dims() }

// Flops returns the per-point floating point operation count.
func (k *Kernel) Flops() int {
	if k.FlopsPerPoint > 0 {
		return k.FlopsPerPoint
	}
	return 2 * k.Shape.TotalAccesses()
}

// MaxBuffers bounds how many input buffers a kernel may read.
const MaxBuffers = 16

// Validate checks structural invariants of the kernel.
func (k *Kernel) Validate() error {
	if k.Shape == nil || k.Shape.Size() == 0 {
		return fmt.Errorf("stencil: kernel %q has empty shape", k.Name)
	}
	if k.Buffers < 1 || k.Buffers > MaxBuffers {
		return fmt.Errorf("stencil: kernel %q has %d buffers, want [1,%d]", k.Name, k.Buffers, MaxBuffers)
	}
	if k.Type != Float32 && k.Type != Float64 {
		return fmt.Errorf("stencil: kernel %q has invalid data type %d", k.Name, k.Type)
	}
	return nil
}

func (k *Kernel) String() string {
	return fmt.Sprintf("%s(%dD, %d pts, %d buf, %s)",
		k.Name, k.Dims(), k.Shape.Size(), k.Buffers, k.Type)
}

// Size is the extent of the field F the stencil updates. 2-D computations
// use Z = 1.
type Size struct {
	X, Y, Z int
}

// Size2D builds a planar size.
func Size2D(x, y int) Size { return Size{x, y, 1} }

// Size3D builds a volumetric size.
func Size3D(x, y, z int) Size { return Size{x, y, z} }

// Points returns the total number of grid points.
func (s Size) Points() int { return s.X * s.Y * s.Z }

// Is2D reports whether the size is planar.
func (s Size) Is2D() bool { return s.Z == 1 }

// Dims returns 2 for a planar size and 3 otherwise.
func (s Size) Dims() int {
	if s.Is2D() {
		return 2
	}
	return 3
}

func (s Size) String() string {
	if s.Is2D() {
		return fmt.Sprintf("%dx%d", s.X, s.Y)
	}
	return fmt.Sprintf("%dx%dx%d", s.X, s.Y, s.Z)
}

// Valid reports whether all extents are positive.
func (s Size) Valid() bool { return s.X > 0 && s.Y > 0 && s.Z > 0 }

// ParseSize parses a size written as NxM (2-D) or NxMxK (3-D): exactly two
// or three positive decimal components separated by 'x', and nothing else.
// It is the one size parser of the service and the command-line tools.
func ParseSize(s string) (Size, error) {
	parts := strings.SplitN(s, "x", 4)
	if len(parts) < 2 || len(parts) > 3 {
		return Size{}, fmt.Errorf("size %q must be NxM or NxMxK", s)
	}
	var dims [3]int
	for i, p := range parts {
		v, err := parsePositive(p)
		if err != nil {
			return Size{}, fmt.Errorf("size %q: component %q %v", s, p, err)
		}
		dims[i] = v
	}
	if len(parts) == 2 {
		return Size2D(dims[0], dims[1]), nil
	}
	return Size3D(dims[0], dims[1], dims[2]), nil
}

// parsePositive parses a non-empty run of decimal digits with a value above
// zero; signs, spaces and any other characters are rejected.
func parsePositive(s string) (int, error) {
	if s == "" {
		return 0, errors.New("is empty")
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errors.New("is not a decimal number")
		}
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, errors.New("is out of range")
	}
	if v == 0 {
		return 0, errors.New("must be positive")
	}
	return v, nil
}

// Instance is q = (k, s): a kernel applied to a concrete input size. It is
// the unit over which the paper defines partial rankings — executions of the
// same instance with different tuning vectors are comparable, executions of
// different instances are not.
type Instance struct {
	Kernel *Kernel
	Size   Size
}

// Validate checks the instance is well formed and the size is compatible
// with the kernel's dimensionality and offset.
func (q Instance) Validate() error {
	if q.Kernel == nil {
		return fmt.Errorf("stencil: instance has nil kernel")
	}
	if err := q.Kernel.Validate(); err != nil {
		return err
	}
	if !q.Size.Valid() {
		return fmt.Errorf("stencil: invalid size %v", q.Size)
	}
	if q.Kernel.Dims() != q.Size.Dims() {
		return fmt.Errorf("stencil: %d-D kernel %q with %d-D size %v", q.Kernel.Dims(), q.Kernel.Name, q.Size.Dims(), q.Size)
	}
	off := q.Kernel.Shape.MaxOffset()
	if q.Size.X <= 2*off || q.Size.Y <= 2*off || (!q.Size.Is2D() && q.Size.Z <= 2*off) {
		return fmt.Errorf("stencil: size %v too small for offset %d", q.Size, off)
	}
	return nil
}

// ID returns a stable human-readable identifier, used as the query id when
// grouping executions into partial rankings.
func (q Instance) ID() string {
	return q.Kernel.Name + "/" + q.Size.String()
}

func (q Instance) String() string { return q.ID() }
