package feature

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stencil"
	"repro/internal/tunespace"
)

func laplacianInstance() stencil.Instance {
	return stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(128, 128, 128)}
}

func blurInstance() stencil.Instance {
	return stencil.Instance{Kernel: stencil.Blur(), Size: stencil.Size2D(1024, 768)}
}

func someTuning() tunespace.Vector {
	return tunespace.Vector{Bx: 64, By: 32, Bz: 16, U: 4, C: 2}
}

func TestEncodeAllComponentsInUnitInterval(t *testing.T) {
	e := NewEncoder()
	rng := rand.New(rand.NewSource(1))
	for _, q := range stencil.Benchmarks() {
		space := tunespace.NewSpace(q.Kernel.Dims())
		for i := 0; i < 200; i++ {
			v := e.Encode(q, space.Random(rng))
			for j, val := range v.Val {
				if val < 0 || val > 1 || math.IsNaN(val) {
					t.Fatalf("%s: feature %d = %v outside [0,1]", q.ID(), v.Idx[j], val)
				}
			}
		}
	}
}

func TestEncodeIndicesStrictlyIncreasing(t *testing.T) {
	e := NewEncoder()
	v := e.Encode(laplacianInstance(), someTuning())
	for i := 1; i < len(v.Idx); i++ {
		if v.Idx[i] <= v.Idx[i-1] {
			t.Fatalf("indices not strictly increasing at %d: %d then %d", i, v.Idx[i-1], v.Idx[i])
		}
	}
	if int(v.Idx[len(v.Idx)-1]) >= Dim {
		t.Fatalf("index %d beyond Dim %d", v.Idx[len(v.Idx)-1], Dim)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	e := NewEncoder()
	a := e.Encode(laplacianInstance(), someTuning())
	b := e.Encode(laplacianInstance(), someTuning())
	if a.NNZ() != b.NNZ() {
		t.Fatal("non-deterministic NNZ")
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || a.Val[i] != b.Val[i] {
			t.Fatal("non-deterministic encoding")
		}
	}
}

// TestDTypeFeature pins the data type's one way into the encoding: its
// coupling with the x block edge, 0 for float and log2(bx)/10 for double.
func TestDTypeFeature(t *testing.T) {
	e := NewEncoder()
	vf := e.Encode(blurInstance(), tunespace.Vector{Bx: 64, By: 32, Bz: 1, U: 4, C: 2})
	vd := e.Encode(laplacianInstance(), someTuning()) // bx = 64
	if got := vf.Get(idxDTypeBx); got != 0 {
		t.Errorf("float dtype*log-bx = %v, want 0", got)
	}
	if got, want := vd.Get(idxDTypeBx), 6/maxLogBlock; got != want {
		t.Errorf("double dtype*log-bx = %v, want %v", got, want)
	}
}

// TestEncodeEmitsNoInstanceOnlyIndex: no encoding of a Table III instance
// holds a component below TailStart, for any vector of the fused predefined
// set.
func TestEncodeEmitsNoInstanceOnlyIndex(t *testing.T) {
	e := NewEncoder()
	for _, q := range stencil.Benchmarks() {
		for _, c := range tunespace.NewSpace(q.Kernel.Dims()).PredefinedFused(1, 2, 3, 4) {
			if v := e.Encode(q, c); v.NNZ() == 0 || v.Idx[0] < TailStart {
				t.Fatalf("%s %v: encoding %v starts below TailStart %d", q.ID(), c, v.Idx, TailStart)
			}
		}
	}
}

func TestDifferentTuningsDiffer(t *testing.T) {
	e := NewEncoder()
	q := laplacianInstance()
	a := e.Encode(q, tunespace.Vector{Bx: 4, By: 4, Bz: 4, U: 0, C: 1})
	b := e.Encode(q, tunespace.Vector{Bx: 512, By: 512, Bz: 64, U: 8, C: 8})
	if DiffSquaredNorm(a, b) == 0 {
		t.Fatal("different tunings encode identically")
	}
}

func TestDifferentKernelsDiffer(t *testing.T) {
	e := NewEncoder()
	tun := someTuning()
	a := e.Encode(stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(128, 128, 128)}, tun)
	b := e.Encode(stencil.Instance{Kernel: stencil.Gradient(), Size: stencil.Size3D(128, 128, 128)}, tun)
	if DiffSquaredNorm(a, b) == 0 {
		t.Fatal("laplacian and gradient encode identically")
	}
}

func TestInteractionFeaturesBreakQCancellation(t *testing.T) {
	// For fixed t, two different instances must differ in at least one
	// tail feature, so within-query pair differences retain
	// instance-specific signal. The tail (indices ≥ idxBx) is what
	// survives a within-query difference; its tuning terms are equal for
	// equal t, so the interaction terms must differ.
	e := NewEncoder()
	tun := someTuning()
	tail := func(v Vector) Vector {
		i, _ := slices.BinarySearch(v.Idx, idxBx)
		return Vector{Idx: v.Idx[i:], Val: v.Val[i:]}
	}
	a := e.Encode(stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(128, 128, 128)}, tun)
	b := e.Encode(stencil.Instance{Kernel: stencil.Laplacian(), Size: stencil.Size3D(256, 256, 256)}, tun)
	if DiffSquaredNorm(tail(a), tail(b)) == 0 {
		t.Fatal("interaction features identical across sizes")
	}
}

func TestVectorGet(t *testing.T) {
	v := Vector{Idx: []int32{2, 5, 9}, Val: []float64{0.5, 0.25, 1}}
	cases := map[int]float64{0: 0, 2: 0.5, 3: 0, 5: 0.25, 9: 1, 100: 0}
	for i, want := range cases {
		if got := v.Get(i); got != want {
			t.Errorf("Get(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestDot(t *testing.T) {
	v := Vector{Idx: []int32{0, 3, 7}, Val: []float64{2, 4, 8}}
	w := make([]float64, 5)
	w[0], w[3] = 0.5, 0.25
	// Index 7 lies past len(w) and contributes nothing.
	if got := v.Dot(w); got != 2 {
		t.Errorf("Dot = %v, want 2", got)
	}
}

func TestDiffOperations(t *testing.T) {
	a := Vector{Idx: []int32{0, 2, 4}, Val: []float64{1, 2, 3}}
	b := Vector{Idx: []int32{1, 2, 5}, Val: []float64{4, 1, 2}}
	// a-b = (1, -4, 1, 0, 3, -2): squared norm = 1+16+1+9+4 = 31.
	if got := DiffSquaredNorm(a, b); got != 31 {
		t.Errorf("DiffSquaredNorm = %v, want 31", got)
	}
}

func TestPropertyDiffNormZeroIffSameEncoding(t *testing.T) {
	e := NewEncoder()
	q := laplacianInstance()
	space := tunespace.NewSpace(3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		t1 := space.Random(rng)
		v1 := e.Encode(q, t1)
		v2 := e.Encode(q, t1)
		return DiffSquaredNorm(v1, v2) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDiffNormSymmetric(t *testing.T) {
	e := NewEncoder()
	q := blurInstance()
	space := tunespace.NewSpace(2)
	f := func(seedA, seedB int64) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		a := e.Encode(q, space.Random(ra))
		b := e.Encode(q, space.Random(rb))
		return math.Abs(DiffSquaredNorm(a, b)-DiffSquaredNorm(b, a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDotLinearity(t *testing.T) {
	// (a-b)·w computed as a.Dot(w) - b.Dot(w) equals the dense difference
	// dotted with w.
	e := NewEncoder()
	q := laplacianInstance()
	space := tunespace.NewSpace(3)
	f := func(seedA, seedB int64) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		a := e.Encode(q, space.Random(ra))
		b := e.Encode(q, space.Random(rb))
		w := make([]float64, Dim)
		wr := rand.New(rand.NewSource(seedA ^ seedB))
		for i := range w {
			w[i] = wr.NormFloat64()
		}
		direct := a.Dot(w) - b.Dot(w)
		var indirect float64
		for i := range w {
			indirect += w[i] * (a.Get(i) - b.Get(i))
		}
		return math.Abs(direct-indirect) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBuilderPanicsOnOutOfOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order put")
		}
	}()
	var b builder
	b.put(5, 1)
	b.put(3, 1)
}

// TestDimConstant pins the index layout persisted models were fitted
// against: the encoding starts at 353, past the retired 7³ pattern block and
// ten instance-only features, and spans 441 indices.
func TestDimConstant(t *testing.T) {
	if TailStart != 353 || idxBx != TailStart {
		t.Fatalf("TailStart = %d, idxBx = %d, want 353", TailStart, idxBx)
	}
	if Dim != 441 {
		t.Fatalf("Dim = %d, want 441", Dim)
	}
}

func TestFeatureNamesUniqueAndTotal(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < Dim; i++ {
		n := Name(i)
		if n == "" {
			t.Fatalf("feature %d has empty name", i)
		}
		if strings.HasPrefix(n, "feature(") || strings.HasPrefix(n, "invalid(") {
			t.Fatalf("feature %d has fallback name %q", i, n)
		}
		if prev, dup := seen[n]; dup {
			t.Fatalf("features %d and %d share name %q", prev, i, n)
		}
		seen[n] = i
	}
	if Name(-1) != "invalid(-1)" || Name(Dim) != fmt.Sprintf("invalid(%d)", Dim) {
		t.Error("out-of-range names wrong")
	}
}

func TestFeatureNamesKnownValues(t *testing.T) {
	if got := Name(171); got != "retired(171)" {
		t.Errorf("retired index name = %q", got)
	}
	if got := Name(idxBx); got != "log-bx" {
		t.Errorf("bx name = %q", got)
	}
	if got := Name(idxWSBin0); got != "ws-bin[0]" {
		t.Errorf("ws bin name = %q", got)
	}
}

// TestFusionFeaturesGatedOnDepth pins the forward-compatibility contract of
// the fusion block: unfused vectors (K = 0 or 1) encode exactly as before the
// block existed, fused vectors append it at the tail, and deeper fusion
// changes the encoding.
func TestFusionFeaturesGatedOnDepth(t *testing.T) {
	e := NewEncoder()
	q := laplacianInstance()
	base := someTuning()

	k0, k1 := base, base
	k0.K = 0
	k1.K = 1
	v0, v1 := e.Encode(q, k0), e.Encode(q, k1)
	if DiffSquaredNorm(v0, v1) != 0 {
		t.Fatal("K=0 and K=1 must encode identically")
	}
	for _, idx := range v1.Idx {
		if int(idx) >= idxFuse {
			t.Fatalf("unfused vector emits fusion feature %s", Name(int(idx)))
		}
	}

	prev := v1
	for kf := 2; kf <= tunespace.MaxFuse; kf++ {
		tv := base
		tv.K = kf
		v := e.Encode(q, tv)
		if v.Get(idxFuse) == 0 {
			t.Fatalf("K=%d vector missing linear fuse feature", kf)
		}
		if v.Get(idxFuseBin0+kf-2) != 1 {
			t.Fatalf("K=%d vector missing one-hot fuse bin", kf)
		}
		if DiffSquaredNorm(prev, v) == 0 {
			t.Fatalf("K=%d encodes identically to K=%d", kf, kf-1)
		}
		// The fused encoding is the unfused one plus a pure tail extension:
		// every pre-fusion component is unchanged.
		for i, idx := range v.Idx {
			if int(idx) >= idxFuse {
				continue
			}
			if v1.Get(int(idx)) != v.Val[i] {
				t.Fatalf("K=%d changed pre-fusion feature %s", kf, Name(int(idx)))
			}
		}
		prev = v
	}
}

// TestOlderModelIgnoresFusionTail pins that a weight vector of the
// pre-fusion dimensionality scores fused vectors as if the fusion features
// had zero weight.
func TestOlderModelIgnoresFusionTail(t *testing.T) {
	e := NewEncoder()
	q := laplacianInstance()
	unfused := someTuning()
	fused := unfused
	fused.K = 4

	oldW := make([]float64, idxFuse) // pre-fusion encoding width
	for i := range oldW {
		oldW[i] = 0.01 * float64(i%7)
	}
	vu, vf := e.Encode(q, unfused), e.Encode(q, fused)
	if vu.Dot(oldW) != vf.Dot(oldW) {
		t.Fatal("older model must score fused and unfused vectors identically")
	}
}

func TestFusionFeatureNames(t *testing.T) {
	if got := Name(idxFuse); got != "fuse" {
		t.Errorf("Name(idxFuse) = %q", got)
	}
	if got := Name(idxFuseBin0 + 1); got != "fuse-bin[k=3]" {
		t.Errorf("Name(idxFuseBin0+1) = %q", got)
	}
}
