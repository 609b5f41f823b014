package exec_test

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/grid"
	"repro/internal/stencil"
	"repro/internal/tunespace"
	"repro/internal/wire"
)

// TestMultiBufferKernelsReadEveryBuffer checks that the executable form of
// every multi-buffer model kernel — the training kernels and a wire offsets
// kernel declaring three buffers — reads each buffer it declares: every
// buffer carries a term, and zeroing any one input changes the output.
func TestMultiBufferKernelsReadEveryBuffer(t *testing.T) {
	var kernels []*stencil.Kernel
	for _, k := range dataset.TrainingKernels() {
		if k.Buffers > 1 {
			kernels = append(kernels, k)
		}
	}
	wk, err := wire.Kernel{
		Offsets: [][]int{{0, 0, 0}, {1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}},
		Buffers: 3,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	kernels = append(kernels, wk)

	r := exec.NewRunner()
	defer r.Close()
	rng := rand.New(rand.NewSource(5))
	for _, sk := range kernels {
		k := exec.Executable(sk)
		read := make([]bool, k.Buffers)
		for _, term := range k.Terms {
			read[term.Buffer] = true
		}
		for b, ok := range read {
			if !ok {
				t.Errorf("%s: no term reads buffer %d of %d", sk.Name, b, k.Buffers)
			}
		}

		nz, haloZ := 6, k.MaxOffset()
		if sk.Dims() == 2 {
			nz, haloZ = 1, 0
		}
		mk := func() *grid.Grid[float64] { return grid.New(12, 10, nz, k.MaxOffset(), haloZ) }
		ins := make([]*grid.Grid[float64], k.Buffers)
		for i := range ins {
			ins[i] = mk()
			for j, d := 0, ins[i].Data(); j < len(d); j++ {
				d[j] = 1 + rng.Float64()
			}
		}
		tv := tunespace.Vector{Bx: 8, By: 4, Bz: 4, U: 2, C: 1}
		full := mk()
		if err := r.Run(k, full, ins, tv); err != nil {
			t.Fatalf("%s: %v", sk.Name, err)
		}
		for b := range ins {
			zeroed := append([]*grid.Grid[float64](nil), ins...)
			zeroed[b] = mk()
			got := mk()
			if err := r.Run(k, got, zeroed, tv); err != nil {
				t.Fatalf("%s: %v", sk.Name, err)
			}
			if grid.MaxAbsDiff(full, got) == 0 {
				t.Errorf("%s: zeroing buffer %d left the output unchanged", sk.Name, b)
			}
		}
	}
}
