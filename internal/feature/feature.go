// Package feature implements the stencil encoding framework of Section III:
// it captures the static stencil description k = (shape, buffers, dtype), the
// input size s and the tuning vector t into a single feature vector whose
// components are real values normalized to [0, 1].
//
// What is encoded. The ordinal-regression training of Sec. IV-D compares
// executions of the *same* instance q only, so a component that depends on q
// alone holds the same value in both members of every training pair and
// cancels out of every pair difference: its weight stays exactly +0 and it
// cannot change any ranking. The paper's 7×7×7 pattern matrix of Sec. III-A,
// the kernel summary and the size block are such components, so they are not
// encoded. The instance reaches the ranking only through q×t interaction
// terms computed from q and t together (tile working set, boundary
// fractions, tile counts, unroll×density, dtype×block edge, …), next to the
// tuning terms themselves and quadratic terms that let the linear model
// express single-peak preferences over log-scaled parameters. Every emitted
// index lies at or above TailStart; the indices below it belonged to the
// instance-only components and are kept free, so persisted models keep their
// layout.
//
// Representation note. Feature vectors are stored sparsely (index/value
// pairs): a vector holds a few dozen of the Dim components.
//
// Scoring note. Each component reads only a few tuning parameters (one block
// edge, u, c, the tile shape, ...), so the encoding is split into dependency
// groups, each computed by one function (tail.go) that Encode and the scorer
// share. Encoder.Plan computes the constants the groups read of q once per
// instance; Plan.ScoreInto then scores a whole candidate set, computing each
// group's products with the weights once per distinct parameter value and
// adding a candidate's products to a sum that starts at +0 in ascending
// index order. Those are Vector.Dot's additions in Dot's order, so the scores
// are bit-identical to Encode followed by Dot, and no vector is built or
// allocated. Plan.ScoreChunks hands the same scores over a fixed-size chunk
// at a time, for callers that select the best candidates without a score
// vector.
//
// Selection note. Plan.Best returns the first index of the highest score
// without scoring every candidate. A score is the sum of three parts: the
// products of the tile shape (bx, by, bz, K), of the pair (bx, u) and of
// the pair (tile count, c). A bound pass walks the runs of candidates that
// share a shape and bounds each from its shape's sum and the largest
// (bx, u) and (tile count, c) sums over the run's u and c values, plus a
// rounding margin of 1e-13·Σ|w| (the derivation is at boundSlack). An
// exact pass scores the run of the highest bound first, then only the runs
// whose bound reaches the best score so far, with ScoreInto's additions.
// The predefined sets are full products of shapes × u × c, so a bound is
// its run's best score up to the margin, and one run of 16 candidates of
// the 1,600 or 8,640 is scored exactly unless runs tie.
package feature

import (
	"fmt"
	"math"

	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// TailStart is the first feature index an encoding emits. The indices below
// it held the instance-only components (the 7³ pattern block, six
// kernel-summary and four size features), which no ranking can see; they
// stay unused, so the layout of persisted models is unchanged.
const TailStart = 353

// Feature indices, kept together so tests and the encoder can address blocks
// symbolically.
const (
	idxBx = TailStart + iota
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
	maxAccesses = 512.0
	maxLogBlock = 10.0 // blocks up to 1024
	maxLogChunk = 4.0  // chunks up to 16
	maxLogWS    = 32.0 // tile working sets up to 4 GiB
	maxLogTiles = 36.0
	maxLogInner = 14.0 // bx*(u+1) up to 1024*9
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
func (v Vector) Dot(w []float64) float64 {
	var s float64
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
// the components Plan scores, every one in [0, 1] and at an index at or
// above TailStart.
func (e *Encoder) Encode(q stencil.Instance, t tunespace.Vector) Vector {
	var ts [maxTail]term
	e.Plan(q).tailTerms(t, &ts)
	// Dataset generation calls Encode once per training point, so the
	// builder is sized exactly once: append-regrowth here would be a
	// dominant allocation source.
	b := newBuilder(maxTail)
	for _, tm := range &ts {
		b.put(int(tm.idx), tm.val)
	}
	return b.vector()
}

// Plan is the per-instance half of the encoding. Ranking a candidate set
// encodes one instance q against thousands of tuning vectors; the constants
// the components read of q are computed once here. Each tuning vector then
// pays only for its own components, and ScoreInto computes each group once
// per distinct value of the parameters it reads.
//
// A candidate's components follow in ascending index order. Dot sums in that
// order, and ScoreInto adds the same products in the same order from the
// same +0 start, which makes it bit-identical to Encode followed by Dot,
// including the rule that indices beyond an older, narrower weight vector
// count as zero.
//
// A Plan is read-only once built and safe for concurrent use.
type Plan struct {
	size    stencil.Size
	density float64 // per-cell loads over maxAccesses
	// Element size and buffer count stay separate factors: the tile working
	// set's left-to-right product fixes its rounding, and persisted models
	// were trained on exactly those bits.
	bytes   float64 // element size in bytes
	buffers float64 // input buffers read
	dtype   float64 // data type feature value
}

// Plan returns the encoding plan of instance q.
func (e *Encoder) Plan(q stencil.Instance) *Plan {
	k := q.Kernel
	return &Plan{
		size:    q.Size,
		density: float64(k.Shape.TotalAccesses()) / maxAccesses,
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
