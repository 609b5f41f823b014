package stencil

import (
	"strings"
	"testing"

	"repro/internal/shape"
)

func TestDataType(t *testing.T) {
	if Float32.Bytes() != 4 || Float64.Bytes() != 8 {
		t.Error("byte sizes wrong")
	}
	if Float32.String() != "float" || Float64.String() != "double" {
		t.Error("names wrong")
	}
	if Float32.FeatureValue() != 0 || Float64.FeatureValue() != 1 {
		t.Error("feature encoding wrong (paper Sec. III-A.2)")
	}
	for in, want := range map[string]DataType{"float": Float32, "float32": Float32, "double": Float64, "float64": Float64} {
		if got, err := ParseDataType(in); err != nil || got != want {
			t.Errorf("ParseDataType(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "quad", "Float", "int"} {
		if _, err := ParseDataType(bad); err == nil {
			t.Errorf("ParseDataType(%q) accepted", bad)
		}
	}
}

func TestKernelValidate(t *testing.T) {
	valid := &Kernel{Name: "k", Shape: shape.Laplacian3D(1), Buffers: 1, Type: Float64}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid kernel rejected: %v", err)
	}
	cases := []*Kernel{
		{Name: "nilshape", Shape: nil, Buffers: 1},
		{Name: "empty", Shape: shape.New(), Buffers: 1},
		{Name: "nobuf", Shape: shape.Laplacian3D(1), Buffers: 0},
		{Name: "toomanybufs", Shape: shape.Laplacian3D(1), Buffers: MaxBuffers + 1},
		{Name: "badtype", Shape: shape.Laplacian3D(1), Buffers: 1, Type: DataType(7)},
	}
	for _, k := range cases {
		if err := k.Validate(); err == nil {
			t.Errorf("kernel %q should be invalid", k.Name)
		}
	}
}

func TestKernelFlopsDefault(t *testing.T) {
	k := &Kernel{Name: "k", Shape: shape.Laplacian3D(1), Buffers: 1, Type: Float64}
	if got := k.Flops(); got != 14 { // 2 × 7 accesses
		t.Errorf("default Flops = %d, want 14", got)
	}
	k.FlopsPerPoint = 99
	if got := k.Flops(); got != 99 {
		t.Errorf("explicit Flops = %d, want 99", got)
	}
}

func TestSize(t *testing.T) {
	s2 := Size2D(1024, 768)
	if !s2.Is2D() || s2.Points() != 1024*768 || s2.String() != "1024x768" {
		t.Errorf("2-D size misbehaves: %v", s2)
	}
	s3 := Size3D(128, 128, 128)
	if s3.Is2D() || s3.Points() != 128*128*128 || s3.String() != "128x128x128" {
		t.Errorf("3-D size misbehaves: %v", s3)
	}
	if (Size{0, 1, 1}).Valid() || !s3.Valid() {
		t.Error("Valid() wrong")
	}
}

func TestInstanceValidate(t *testing.T) {
	ok := Instance{Laplacian(), Size3D(128, 128, 128)}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	if err := (Instance{nil, Size3D(8, 8, 8)}).Validate(); err == nil {
		t.Error("nil kernel accepted")
	}
	if err := (Instance{Laplacian(), Size2D(128, 128)}).Validate(); err == nil {
		t.Error("3-D kernel with 2-D size accepted")
	}
	if err := (Instance{Edge(), Size3D(48, 48, 48)}).Validate(); err == nil {
		t.Error("2-D kernel with 3-D size accepted")
	}
	if err := (Instance{Laplacian6(), Size3D(6, 6, 6)}).Validate(); err == nil {
		t.Error("size smaller than twice the offset accepted")
	}
	if err := (Instance{Blur(), Size2D(1024, 0)}).Validate(); err == nil {
		t.Error("zero extent accepted")
	}
}

func TestInstanceID(t *testing.T) {
	q := Instance{Blur(), Size2D(1024, 768)}
	if q.ID() != "blur/1024x768" {
		t.Errorf("ID = %q", q.ID())
	}
	if q.String() != q.ID() {
		t.Error("String should equal ID")
	}
}

func TestTable3KernelProperties(t *testing.T) {
	// Exact Table III shape sizes, buffer counts and types.
	cases := []struct {
		k       *Kernel
		points  int
		buffers int
		dtype   DataType
		dims    int
	}{
		{Blur(), 25, 1, Float32, 2},
		{Edge(), 9, 1, Float32, 2},
		{GameOfLife(), 9, 1, Float32, 2},
		{Wave(), 13, 1, Float32, 3}, // 13 distinct points ("13 laplacian + 1" re-reads centre)
		{Tricubic(), 64, 3, Float32, 3},
		{Divergence(), 6, 3, Float64, 3},
		{Gradient(), 6, 1, Float64, 3},
		{Laplacian(), 7, 1, Float64, 3},
		{Laplacian6(), 19, 1, Float64, 3},
	}
	for _, c := range cases {
		if got := c.k.Shape.Size(); got != c.points {
			t.Errorf("%s: %d points, want %d", c.k.Name, got, c.points)
		}
		if c.k.Buffers != c.buffers {
			t.Errorf("%s: %d buffers, want %d", c.k.Name, c.k.Buffers, c.buffers)
		}
		if c.k.Type != c.dtype {
			t.Errorf("%s: type %v, want %v", c.k.Name, c.k.Type, c.dtype)
		}
		if got := c.k.Dims(); got != c.dims {
			t.Errorf("%s: dims %d, want %d", c.k.Name, got, c.dims)
		}
		if err := c.k.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", c.k.Name, err)
		}
	}
}

func TestWaveReadsCentreTwice(t *testing.T) {
	w := Wave()
	if m := w.Shape.Multiplicity(shape.Point{}); m != 2 {
		t.Errorf("wave centre multiplicity = %d, want 2 (the '+1' read)", m)
	}
	if w.Shape.TotalAccesses() != 14 {
		t.Errorf("wave total accesses = %d, want 14", w.Shape.TotalAccesses())
	}
}

func TestGradientDivergenceDoNotReadCentre(t *testing.T) {
	for _, k := range []*Kernel{Gradient(), Divergence()} {
		if k.Shape.Contains(shape.Point{}) {
			t.Errorf("%s should not read the centre (Table III)", k.Name)
		}
	}
}

func TestBenchmarksCount(t *testing.T) {
	b := Benchmarks()
	if len(b) != 17 {
		t.Fatalf("got %d benchmarks, want 17 (Table III)", len(b))
	}
	for _, q := range b {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.ID(), err)
		}
	}
	// 9 distinct kernels.
	names := map[string]bool{}
	for _, q := range b {
		names[q.Kernel.Name] = true
	}
	if len(names) != 9 {
		t.Errorf("got %d distinct kernels, want 9", len(names))
	}
}

func TestKernelByName(t *testing.T) {
	k, err := KernelByName("tricubic")
	if err != nil || k.Name != "tricubic" {
		t.Errorf("lookup failed: %v", err)
	}
	if _, err := KernelByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("expected unknown-kernel error, got %v", err)
	}
	// The lookup and the table order build the same nine kernels.
	for _, want := range BenchmarkKernels() {
		got, err := KernelByName(want.Name)
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		if !got.Shape.Equal(want.Shape) || got.Buffers != want.Buffers || got.Type != want.Type || got.Flops() != want.Flops() {
			t.Errorf("KernelByName(%q) = %v, want %v", want.Name, got, want)
		}
	}
	// Every lookup returns a fresh kernel: reshaping one leaves the next
	// lookup untouched.
	k.Shape.Add(shape.Point{X: 9, Y: 9, Z: 9}, 1)
	again, _ := KernelByName("tricubic")
	if again.Shape.Contains(shape.Point{X: 9, Y: 9, Z: 9}) || again.Shape.Size() != 64 {
		t.Errorf("a modified lookup result leaked into the next lookup: %v", again)
	}
}

func TestBenchmarkKernelNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range BenchmarkKernels() {
		if seen[k.Name] {
			t.Errorf("duplicate kernel name %q", k.Name)
		}
		seen[k.Name] = true
	}
}

func TestTrainingSizes(t *testing.T) {
	if got := len(TrainingSizes2D()); got != 4 {
		t.Errorf("2-D training sizes = %d, want 4 (Sec. V-B)", got)
	}
	if got := len(TrainingSizes3D()); got != 3 {
		t.Errorf("3-D training sizes = %d, want 3 (Sec. V-B)", got)
	}
	for _, s := range TrainingSizes2D() {
		if !s.Is2D() {
			t.Errorf("%v should be 2-D", s)
		}
	}
	for _, s := range TrainingSizes3D() {
		if s.Is2D() {
			t.Errorf("%v should be 3-D", s)
		}
	}
}

func TestKernelString(t *testing.T) {
	s := Laplacian().String()
	for _, want := range []string{"laplacian", "3D", "7 pts", "double"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestParseSize(t *testing.T) {
	for in, want := range map[string]Size{
		"1024x768":    Size2D(1024, 768),
		"64x64x64":    Size3D(64, 64, 64),
		"128x64x1":    Size3D(128, 64, 1),
		"007x8":       Size2D(7, 8),
		"3x5x2147483": Size3D(3, 5, 2147483),
	} {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{
		"", "x", "64", "64x", "x64", "64x64x", "64xx64", "64x64x64x64",
		"64x64x64junk", "64x64 ", " 64x64", "+64x64", "-64x64", "64x0",
		"64X64", "64x6.4", "64x99999999999999999999",
	} {
		if got, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) = %v, want an error", in, got)
		}
	}
}
