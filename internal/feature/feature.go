// Package feature implements the stencil encoding framework of Section III:
// it captures the static stencil description k = (shape, buffers, dtype), the
// input size s and the tuning vector t into a single feature vector whose
// components are real values normalized to [0, 1].
//
// Representation note. Feature vectors are stored sparsely (index/value
// pairs): the dominant block is the dense 7×7×7 binary pattern matrix of
// Sec. III-A, of which a typical stencil touches only a handful of cells.
//
// Scoring note. A vector is a head that depends on the instance alone
// (pattern block, kernel summary, size block) followed by a tail that
// depends on the tuning vector, and every head index lies below every tail
// index. Each tail component reads only a few tuning parameters (one block
// edge, u, c, the tile shape, ...), so the tail is split into dependency
// groups, each computed by one function (tail.go) that Encode and the scorer
// share. Encoder.Plan builds the head once per instance; Plan.ScoreInto then
// scores a whole candidate set, computing each group's products with the
// weights once per distinct parameter value and adding a candidate's
// products to the head's partial sum in ascending index order. Those are
// Vector.Dot's additions in Dot's order, so the scores are bit-identical to
// Encode followed by Dot, and no vector is built or allocated.
//
// Implementation refinement: the ordinal-regression training of Sec. IV-D
// only compares executions of the *same* instance q, so any feature
// depending on q alone cancels out of every within-query pair difference.
// For the ranking function to specialize per stencil/size, the encoding
// must contain q×t interaction terms. We therefore append a block of
// hardware-independent interaction features (tile working set, boundary
// fractions, tile counts, unroll×density, …) computed from q and t together,
// plus quadratic terms that let the linear model express single-peak
// preferences over log-scaled parameters.
package feature

import (
	"fmt"
	"math"

	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// PatternRadius is the maximum neighbour offset representable in the dense
// pattern block. Radius 3 covers every kernel in the paper (the 6th-order
// laplacian reaches offset 3).
const PatternRadius = 3

// patternSide and patternBlock size the dense pattern block: 7³ = 343 cells.
const (
	patternSide  = 2*PatternRadius + 1
	patternBlock = patternSide * patternSide * patternSide
)

// Feature indices of the named (non-pattern) components, offset past the
// pattern block. Kept together so tests and the encoder can address blocks
// symbolically.
const (
	idxPoints = patternBlock + iota
	idxAccesses
	idxMaxOffset
	idxDims
	idxBuffers
	idxDType
	idxSizeX
	idxSizeY
	idxSizeZ
	idxSizeTotal
	idxBx
	idxBy
	idxBz
	idxUnroll
	idxChunk
	idxBx2
	idxBy2
	idxBz2
	idxUnroll2
	idxChunk2
	idxTileWS
	idxTileWS2
	idxFracX
	idxFracY
	idxFracZ
	idxNumTiles
	idxTileGroups
	idxTileGroups2
	idxUnrollDensity
	idxInnerStream
	idxInnerStream2
	idxDTypeBx
	idxDensityWS
	// One-hot binned blocks: a linear ranker cannot express the
	// thresholded cache-fit behaviour of real machines from smooth inputs
	// alone, so each of these gives it a free-form piecewise shape.
	idxWSBin0                                   // 8 bins over log2(tile working set)
	idxBxBin0      = idxWSBin0 + wsBins         // 10 bins over log2(bx)
	idxByBin0      = idxBxBin0 + blockBins      // 10 bins over log2(by)
	idxBzBin0      = idxByBin0 + blockBins      // 10 bins over log2(bz)
	idxUnrollBin0  = idxBzBin0 + blockBins      // 9 bins: u = 0..8
	idxChunkBin0   = idxUnrollBin0 + unrollBins // 5 bins over log2(c)
	idxBalanceBin0 = idxChunkBin0 + chunkBins   // 6 bins over log2(groups/cores-ish)
	// Temporal-fusion block, appended after every older block so that models
	// trained before fusion existed keep scoring unchanged: an unfused vector
	// (effective depth 1) emits none of these, and Dot treats indices beyond
	// an older model's weight vector as zero-weight.
	idxFuse        = idxBalanceBin0 + balanceBins // linear fusion depth
	idxFuse2       = idxFuse + 1                  // its square
	idxFuseDensity = idxFuse + 2                  // depth × stencil density
	idxFuseWS      = idxFuse + 3                  // depth × tile working set
	idxFuseBin0    = idxFuse + 4                  // one-hot bins for K = 2..MaxFuse
	// Dim is the total feature-vector dimensionality.
	Dim = idxFuseBin0 + fuseBins
)

// Bin counts for the one-hot blocks.
const (
	wsBins      = 8
	blockBins   = 10
	unrollBins  = 9
	chunkBins   = 5
	balanceBins = 6
	fuseBins    = tunespace.MaxFuse - 1
)

// normalization caps, chosen so every encountered value lands in [0, 1].
const (
	maxMultiplicity = 3.0 // pattern cell multiplicities are clipped here
	maxPoints       = 343.0
	maxAccesses     = 512.0
	maxBuffers      = 4.0
	maxLogExtent    = 12.0 // grids up to 4096 per dimension
	maxLogTotal     = 36.0
	maxLogBlock     = 10.0 // blocks up to 1024
	maxLogChunk     = 4.0  // chunks up to 16
	maxLogWS        = 32.0 // tile working sets up to 4 GiB
	maxLogTiles     = 36.0
	maxLogInner     = 14.0 // bx*(u+1) up to 1024*9
)

// Vector is a sparse feature vector with the fixed dimensionality Dim.
// Indices are strictly increasing.
type Vector struct {
	Idx []int32
	Val []float64
}

// NNZ returns the number of stored (non-zero) components.
func (v Vector) NNZ() int { return len(v.Idx) }

// Dot returns the inner product with a dense weight vector of up to length
// Dim. Indices beyond len(w) contribute zero: a model trained under an older,
// narrower encoding scores vectors of the current encoding as if every added
// feature had zero weight, which keeps persisted models valid across encoding
// growth. Indices are sorted ascending, so the scan stops at the first
// out-of-range one.
func (v Vector) Dot(w []float64) float64 { return v.dotFrom(0, w) }

// dotFrom continues a dot product from the partial sum s. Plan.ScoreInto
// takes a head's partial sum through it and then adds the tail's products,
// computed as product computes them, in the same index order.
func (v Vector) dotFrom(s float64, w []float64) float64 {
	for i, idx := range v.Idx {
		if int(idx) >= len(w) {
			break
		}
		// The conversion rounds the product on its own, so that no
		// platform fuses it into the addition: ScoreInto adds the same
		// rounded products.
		s += float64(v.Val[i] * w[idx])
	}
	return s
}

// DiffSquaredNorm returns ‖a − b‖² via an ordered merge of the two sparse
// vectors.
func DiffSquaredNorm(a, b Vector) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] < b.Idx[j]:
			s += a.Val[i] * a.Val[i]
			i++
		case a.Idx[i] > b.Idx[j]:
			s += b.Val[j] * b.Val[j]
			j++
		default:
			d := a.Val[i] - b.Val[j]
			s += d * d
			i++
			j++
		}
	}
	for ; i < len(a.Idx); i++ {
		s += a.Val[i] * a.Val[i]
	}
	for ; j < len(b.Idx); j++ {
		s += b.Val[j] * b.Val[j]
	}
	return s
}

// builder collects index/value pairs; indices must be appended in
// increasing order.
type builder struct {
	idx []int32
	val []float64
}

func newBuilder(capHint int) builder {
	return builder{idx: make([]int32, 0, capHint), val: make([]float64, 0, capHint)}
}

func (b *builder) vector() Vector { return Vector{Idx: b.idx, Val: b.val} }

func (b *builder) put(i int, v float64) {
	if v == 0 {
		return
	}
	if n := len(b.idx); n > 0 && int(b.idx[n-1]) >= i {
		panic(fmt.Sprintf("feature: indices out of order: %d after %d", i, b.idx[n-1]))
	}
	b.idx = append(b.idx, int32(i))
	b.val = append(b.val, v)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func log2(v float64) float64 {
	if v <= 1 {
		return 0
	}
	return math.Log2(v)
}

// Encoder turns stencil executions into feature vectors. It holds no state.
type Encoder struct{}

// NewEncoder returns the encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Encode produces the feature vector for the execution (q.Kernel, q.Size, t):
// the instance's head followed by t's tail, the same components Plan scores.
// Every emitted component lies in [0, 1].
func (e *Encoder) Encode(q stencil.Instance, t tunespace.Vector) Vector {
	// Size the builder exactly once: at most one pattern cell per shape
	// point plus the fixed named blocks. Dataset generation calls Encode
	// once per training point, so append-regrowth here is a dominant
	// allocation source.
	b := newBuilder(q.Kernel.Shape.Size() + headNamed + maxTail)
	p := e.plan(q, &b)
	var ts [maxTail]term
	p.tailTerms(t, &ts)
	for _, tm := range &ts {
		b.put(int(tm.idx), tm.val)
	}
	return b.vector()
}

// Plan is the per-instance half of the encoding. Ranking a candidate set
// encodes one instance q against thousands of tuning vectors; everything
// that depends on q alone is computed once here: the head (pattern block,
// kernel summary and size block) and the q-derived constants the tail
// reads. Each tuning vector then pays only for its tail, and ScoreInto
// computes each tail group once per distinct value of the parameters it
// reads.
//
// Every head index lies below idxBx and every tail index at or above it, so
// an encoded vector is its head followed by its tail in ascending index
// order. Dot sums in that order, and ScoreInto adds the same products in the
// same order, which makes it bit-identical to Encode followed by Dot,
// including the rule that indices beyond an older, narrower weight vector
// count as zero.
//
// A Plan is read-only once built and safe for concurrent use.
type Plan struct {
	head    Vector
	size    stencil.Size
	density float64 // per-cell loads over maxAccesses
	// Element size and buffer count stay separate factors: the tile working
	// set's left-to-right product fixes its rounding, and persisted models
	// were trained on exactly those bits.
	bytes   float64 // element size in bytes
	buffers float64 // input buffers read
	dtype   float64 // data type feature value
}

// headNamed is the number of named (non-pattern) head components: six
// kernel-summary and four size features.
const headNamed = 10

// Plan returns the encoding plan of instance q.
func (e *Encoder) Plan(q stencil.Instance) *Plan {
	b := newBuilder(q.Kernel.Shape.Size() + headNamed)
	p := e.plan(q, &b)
	p.head = b.vector()
	return &p
}

// plan emits q's head into b and returns the plan's constants; the caller
// decides whether the head becomes the plan's or the start of a vector.
func (e *Encoder) plan(q stencil.Instance, b *builder) Plan {
	k := q.Kernel
	sz := q.Size
	accesses := k.Shape.TotalAccesses()

	// Dense pattern block: cell (x,y,z) at flat index
	// ((z+R)*side + (y+R))*side + (x+R). Points() is already in ascending
	// (z,y,x) order, matching increasing flat indices.
	for _, p := range k.Shape.Points() {
		if p.ChebyshevNorm() > PatternRadius {
			continue
		}
		flat := ((p.Z+PatternRadius)*patternSide+(p.Y+PatternRadius))*patternSide +
			(p.X + PatternRadius)
		m := float64(k.Shape.Multiplicity(p))
		b.put(flat, clamp01(m/maxMultiplicity))
	}
	b.put(idxPoints, clamp01(float64(k.Shape.Size())/maxPoints))
	b.put(idxAccesses, clamp01(float64(accesses)/maxAccesses))
	b.put(idxMaxOffset, clamp01(float64(k.Shape.MaxOffset())/PatternRadius))
	b.put(idxDims, float64(k.Dims()-2)) // 0 for 2-D, 1 for 3-D
	b.put(idxBuffers, clamp01(float64(k.Buffers)/maxBuffers))
	b.put(idxDType, k.Type.FeatureValue())

	// Size block.
	b.put(idxSizeX, clamp01(log2(float64(sz.X))/maxLogExtent))
	b.put(idxSizeY, clamp01(log2(float64(sz.Y))/maxLogExtent))
	b.put(idxSizeZ, clamp01(log2(float64(sz.Z))/maxLogExtent))
	b.put(idxSizeTotal, clamp01(log2(float64(sz.Points()))/maxLogTotal))

	return Plan{
		size:    sz,
		density: float64(accesses) / maxAccesses,
		bytes:   float64(k.Type.Bytes()),
		buffers: float64(k.Buffers),
		dtype:   k.Type.FeatureValue(),
	}
}

// binIndex maps v into n equal bins spanning [lo, hi), clamping outliers
// into the first/last bin.
func binIndex(v, lo, hi float64, n int) int {
	if v < lo {
		return 0
	}
	if v >= hi {
		return n - 1
	}
	idx := int(float64(n) * (v - lo) / (hi - lo))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
