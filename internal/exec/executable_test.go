package exec

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/shape"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// goldenTerms renders a kernel's terms as the sorted lines of
// testdata/tableiii_terms.golden.
func goldenTerms(k *LinearKernel) []string {
	lines := make([]string, len(k.Terms))
	for i, t := range k.Terms {
		lines[i] = fmt.Sprintf("%s %d %d %d %d %016x", k.Name, t.Buffer,
			t.Offset.X, t.Offset.Y, t.Offset.Z, math.Float64bits(t.Weight))
	}
	slices.Sort(lines)
	return lines
}

// TestTableIIIExecutableGolden pins the textbook operators: every Table III
// kernel's terms — buffer, offset and weight bits — equal the recorded list.
func TestTableIIIExecutableGolden(t *testing.T) {
	f, err := os.Open("testdata/tableiii_terms.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			name, _, _ := strings.Cut(line, " ")
			want[name] = append(want[name], line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	kernels := stencil.BenchmarkKernels()
	if len(want) != len(kernels) {
		t.Fatalf("golden file holds %d kernels, Table III has %d", len(want), len(kernels))
	}
	for _, sk := range kernels {
		if got := goldenTerms(Executable(sk)); !slices.Equal(got, want[sk.Name]) {
			t.Errorf("%s: terms\n%s\nwant\n%s", sk.Name, strings.Join(got, "\n"), strings.Join(want[sk.Name], "\n"))
		}
	}
}

// offsetsKernel builds a single-buffer kernel from an offset list the way
// wire.Kernel.Build does: one access per listed offset, in list order.
func offsetsKernel(offsets [][3]int, dt stencil.DataType) *stencil.Kernel {
	sh := shape.New()
	for _, o := range offsets {
		sh.Add(shape.Point{X: o[0], Y: o[1], Z: o[2]}, 1)
	}
	return &stencil.Kernel{Name: "custom", Shape: sh, Buffers: 1, Type: dt}
}

// TestOffsetStarsMatchReferenceBitwise builds the row3, star5 and star7
// tables from shuffled offset lists and checks that the compiled program
// takes the fast path and matches Reference bit for bit in both precisions.
func TestOffsetStarsMatchReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	r64 := NewRunner()
	r32 := NewRunnerOf[float32]()
	defer r64.Close()
	defer r32.Close()
	for _, tc := range []struct {
		name  string
		table [][3]int
		kind  fastKind
		nz    int
	}{
		{"row3", row3Offsets, fastRow3, 1},
		{"star5", star5Offsets, fastStar5, 1},
		{"star7", star7Offsets, fastStar7, 9},
	} {
		for trial := 0; trial < 4; trial++ {
			offs := slices.Clone(tc.table)
			rng.Shuffle(len(offs), func(i, j int) { offs[i], offs[j] = offs[j], offs[i] })
			name := fmt.Sprintf("%s%v", tc.name, offs)
			checkFastBitwise(t, r64, name, Executable(offsetsKernel(offs, stencil.Float64)), tc.kind, tc.nz, rng)
			checkFastBitwise(t, r32, name, Executable(offsetsKernel(offs, stencil.Float32)), tc.kind, tc.nz, rng)
		}
	}
}

func checkFastBitwise[T grid.Float](t *testing.T, r *Runner[T], name string, k *LinearKernel, kind fastKind, nz int, rng *rand.Rand) {
	t.Helper()
	nx, ny := 29, 13
	ref, ins := buildWorkspaceOf[T](k, nx, ny, nz)
	for _, g := range ins {
		for i, d := 0, g.Data(); i < len(d); i++ {
			d[i] = T(rng.Float64()*2 - 1)
		}
	}
	if err := r.Reference(k, ref, ins); err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	dims := 3
	if nz == 1 {
		dims = 2
	}
	space := tunespace.NewSpace(dims)
	for v := 0; v < 6; v++ {
		tv := space.Random(rng)
		got := grid.NewOf[T](nx, ny, nz, ref.Halo, ref.HaloZ)
		pr, err := r.Compile(k, got, ins, tv)
		if err != nil {
			t.Fatalf("%s %v: %v", name, tv, err)
		}
		if pr.fp == nil || pr.fp.kind != kind {
			t.Fatalf("%s: fast path not taken", name)
		}
		if err := pr.Run(got, ins); err != nil {
			t.Fatalf("%s %v: %v", name, tv, err)
		}
		if d := grid.MaxAbsDiff(ref, got); d != 0 {
			t.Fatalf("%s %v: diff %g, want bit-for-bit match", name, tv, d)
		}
	}
}
