// Package tunespace models the stencil tuning parameters of Section V of the
// paper: the tuning vector t = (bx, by, bz, u, c, k) of loop-blocking sizes,
// innermost-loop unroll factor, multithreading chunk size and temporal fusion
// depth, together with the search space they span, random sampling, and the
// hierarchically-sampled power-of-two predefined configuration sets used by
// the standalone tuner (1600 configurations for 2-D stencils, 8640 for 3-D —
// Sec. VI-A; the fused variants of the predefined set are generated on top
// of those via PredefinedFused).
package tunespace

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
)

// Parameter ranges from Sec. V: each blocking size ranges over 2..1024, the
// unroll factor over 0..8 (0 = no unrolling), and the chunk size (number of
// consecutive tiles assigned to one thread) over 1..16.
const (
	MinBlock  = 2
	MaxBlock  = 1024
	MinUnroll = 0
	MaxUnroll = 8
	MinChunk  = 1
	MaxChunk  = 16
	// Temporal fusion depth (timesteps advanced per grid sweep). 0 and 1
	// both mean "no fusion"; deeper fusion trades redundant halo
	// recomputation for DRAM-traffic reuse and stops paying off quickly,
	// so the space caps at 4 fused steps.
	MinFuse = 0
	MaxFuse = 4
)

// Vector is the tuning vector t = (bx, by, bz, u, c, k). For 2-D stencils Bz
// is fixed to 1 and ignored by the generated code. K is the temporal fusion
// depth: how many timesteps a single fused sweep advances; 0 and 1 are
// equivalent (plain single-step execution), mirroring how Bz=1 marks the
// degenerate axis in 2-D.
type Vector struct {
	Bx, By, Bz int // loop blocking (tile) sizes per dimension
	U          int // innermost-loop unroll factor, 0 = none
	C          int // chunk size: consecutive tiles per thread assignment
	K          int // temporal fusion depth, 0 or 1 = unfused
}

// EffFuse returns the effective fusion depth: K normalized so that the legacy
// zero value and an explicit 1 both mean "one timestep per sweep".
func (v Vector) EffFuse() int {
	if v.K < 1 {
		return 1
	}
	return v.K
}

func (v Vector) String() string {
	return fmt.Sprintf("(bx=%d,by=%d,bz=%d,u=%d,c=%d,k=%d)", v.Bx, v.By, v.Bz, v.U, v.C, v.EffFuse())
}

// AppendFields appends the vector's components to dst as canonical
// little-endian int64s. It is the single definition of a tuning vector's
// hashable identity — dataset fingerprints and serving cache keys both build
// on it, so a future field extends every fingerprint in one place. The fusion
// depth is appended in its normalized EffFuse form: K=0 and K=1 are the same
// configuration and must hash identically, while vectors differing only in
// effective fusion depth must never alias.
func (v Vector) AppendFields(dst []byte) []byte {
	for _, f := range [...]int{v.Bx, v.By, v.Bz, v.U, v.C, v.EffFuse()} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(f)))
	}
	return dst
}

// Validate checks the vector against the parameter ranges for a stencil of
// the given dimensionality (2 or 3).
func (v Vector) Validate(dims int) error {
	checkBlock := func(name string, b int) error {
		if b < MinBlock || b > MaxBlock {
			return fmt.Errorf("tunespace: %s=%d outside [%d,%d]", name, b, MinBlock, MaxBlock)
		}
		return nil
	}
	if err := checkBlock("bx", v.Bx); err != nil {
		return err
	}
	if err := checkBlock("by", v.By); err != nil {
		return err
	}
	if dims == 3 {
		if err := checkBlock("bz", v.Bz); err != nil {
			return err
		}
	} else if v.Bz != 1 {
		return fmt.Errorf("tunespace: 2-D vector must have bz=1, got %d", v.Bz)
	}
	if v.U < MinUnroll || v.U > MaxUnroll {
		return fmt.Errorf("tunespace: u=%d outside [%d,%d]", v.U, MinUnroll, MaxUnroll)
	}
	if v.C < MinChunk || v.C > MaxChunk {
		return fmt.Errorf("tunespace: c=%d outside [%d,%d]", v.C, MinChunk, MaxChunk)
	}
	if v.K < MinFuse || v.K > MaxFuse {
		return fmt.Errorf("tunespace: k=%d outside [%d,%d]", v.K, MinFuse, MaxFuse)
	}
	return nil
}

// Space describes the tuning search space for stencils of a given
// dimensionality. It is the T of Sec. IV: the set of legal tuning vectors.
type Space struct {
	Dims int // 2 or 3
}

// NewSpace returns the space for 2- or 3-dimensional stencils.
func NewSpace(dims int) Space {
	if dims != 2 && dims != 3 {
		panic(fmt.Sprintf("tunespace: dims must be 2 or 3, got %d", dims))
	}
	return Space{Dims: dims}
}

// Clamp forces v into the legal range for the space, fixing Bz for 2-D.
func (s Space) Clamp(v Vector) Vector {
	v.Bx = clampInt(v.Bx, MinBlock, MaxBlock)
	v.By = clampInt(v.By, MinBlock, MaxBlock)
	if s.Dims == 3 {
		v.Bz = clampInt(v.Bz, MinBlock, MaxBlock)
	} else {
		v.Bz = 1
	}
	v.U = clampInt(v.U, MinUnroll, MaxUnroll)
	v.C = clampInt(v.C, MinChunk, MaxChunk)
	v.K = clampInt(v.EffFuse(), 1, MaxFuse)
	return v
}

// Contains reports whether v is a legal point of the space.
func (s Space) Contains(v Vector) bool { return v.Validate(s.Dims) == nil }

// Random draws a uniformly random legal tuning vector. Blocking sizes are
// drawn log-uniformly (uniform over the exponent range with jitter), which
// mirrors how stencil tuners explore multiplicative block-size spaces.
func (s Space) Random(rng *rand.Rand) Vector {
	v := Vector{
		Bx: randomBlock(rng),
		By: randomBlock(rng),
		Bz: 1,
		U:  MinUnroll + rng.Intn(MaxUnroll-MinUnroll+1),
		C:  MinChunk + rng.Intn(MaxChunk-MinChunk+1),
		K:  1 + rng.Intn(MaxFuse),
	}
	if s.Dims == 3 {
		v.Bz = randomBlock(rng)
	}
	return v
}

// randomBlock draws a block size log-uniformly in [MinBlock, MaxBlock]:
// pick a power-of-two scale, then jitter within the octave.
func randomBlock(rng *rand.Rand) int {
	exp := 1 + rng.Intn(10) // 2^1 .. 2^10
	base := 1 << exp
	if base >= MaxBlock {
		return MaxBlock
	}
	// Jitter uniformly within [base, 2*base).
	b := base + rng.Intn(base)
	return clampInt(b, MinBlock, MaxBlock)
}

// Mutate returns a mutated copy of v used by the evolutionary engines: each
// gene independently perturbs with the given probability. Block sizes move
// by a random factor in {1/4,1/2,2,4}; u and c take small random steps.
func (s Space) Mutate(rng *rand.Rand, v Vector, rate float64) Vector {
	mutBlock := func(b int) int {
		shift := 1 + rng.Intn(2)
		if rng.Intn(2) == 0 {
			return b >> shift
		}
		return b << shift
	}
	if rng.Float64() < rate {
		v.Bx = mutBlock(v.Bx)
	}
	if rng.Float64() < rate {
		v.By = mutBlock(v.By)
	}
	if s.Dims == 3 && rng.Float64() < rate {
		v.Bz = mutBlock(v.Bz)
	}
	if rng.Float64() < rate {
		v.U += rng.Intn(5) - 2
	}
	if rng.Float64() < rate {
		v.C += rng.Intn(5) - 2
	}
	if rng.Float64() < rate {
		v.K = v.EffFuse() + rng.Intn(3) - 1
	}
	return s.Clamp(v)
}

// Crossover returns a uniform crossover of two parents.
func (s Space) Crossover(rng *rand.Rand, a, b Vector) Vector {
	pick := func(x, y int) int {
		if rng.Intn(2) == 0 {
			return x
		}
		return y
	}
	return s.Clamp(Vector{
		Bx: pick(a.Bx, b.Bx),
		By: pick(a.By, b.By),
		Bz: pick(a.Bz, b.Bz),
		U:  pick(a.U, b.U),
		C:  pick(a.C, b.C),
		K:  pick(a.EffFuse(), b.EffFuse()),
	})
}

// Blend returns the differential-evolution style combination
// clamp(a + f*(b - c)) used by the DE engine, gene-wise on the integer
// parameters.
func (s Space) Blend(a, b, c Vector, f float64) Vector {
	mix := func(x, y, z int) int { return x + int(f*float64(y-z)) }
	return s.Clamp(Vector{
		Bx: mix(a.Bx, b.Bx, c.Bx),
		By: mix(a.By, b.By, c.By),
		Bz: mix(a.Bz, b.Bz, c.Bz),
		U:  mix(a.U, b.U, c.U),
		C:  mix(a.C, b.C, c.C),
		K:  mix(a.EffFuse(), b.EffFuse(), c.EffFuse()),
	})
}

func clampInt(v, lo, hi int) int { return min(max(v, lo), hi) }

// powersOfTwo returns {2^lo, ..., 2^hi}.
func powersOfTwo(lo, hi int) []int {
	var out []int
	for e := lo; e <= hi; e++ {
		out = append(out, 1<<e)
	}
	return out
}

// Predefined returns the hierarchically-sampled power-of-two configuration
// set of Sec. VI-A: every combination of power-of-two parameter values,
// sized to match the paper's predefined sets — 1600 configurations for 2-D
// stencils and 8640 for 3-D ones.
//
// 2-D: bx,by ∈ {2..1024} (10 values each), u ∈ {0,2,4,8}, c ∈ {1,2,4,8}
//
//	→ 10·10·4·4 = 1600.
//
// 3-D: bx ∈ {2..1024} (10), by ∈ {4..1024} (9), bz ∈ {2..64} (6, deep
//
//	z-blocks are never profitable on this class of machine),
//	u ∈ {0,2,4,8}, c ∈ {1,2,4,8} → 10·9·6·4·4 = 8640.
//
// Each set is built once per dimensionality and shared by every caller;
// callers must not modify the returned slice (copy it first).
func (s Space) Predefined() []Vector {
	if s.Dims == 2 {
		return predefined2D()
	}
	return predefined3D()
}

var (
	predefined2D = sync.OnceValue(func() []Vector { return buildPredefined(2) })
	predefined3D = sync.OnceValue(func() []Vector { return buildPredefined(3) })
)

func buildPredefined(dims int) []Vector {
	unrolls := []int{0, 2, 4, 8}
	chunks := []int{1, 2, 4, 8}
	if dims == 2 {
		out := make([]Vector, 0, 10*10*len(unrolls)*len(chunks))
		for _, bx := range powersOfTwo(1, 10) {
			for _, by := range powersOfTwo(1, 10) {
				for _, u := range unrolls {
					for _, c := range chunks {
						out = append(out, Vector{Bx: bx, By: by, Bz: 1, U: u, C: c, K: 1})
					}
				}
			}
		}
		return out
	}
	out := make([]Vector, 0, 10*9*6*len(unrolls)*len(chunks))
	for _, bx := range powersOfTwo(1, 10) {
		for _, by := range powersOfTwo(2, 10) {
			for _, bz := range powersOfTwo(1, 6) {
				for _, u := range unrolls {
					for _, c := range chunks {
						out = append(out, Vector{Bx: bx, By: by, Bz: bz, U: u, C: c, K: 1})
					}
				}
			}
		}
	}
	return out
}

// PredefinedFused expands the predefined configuration set across the given
// fusion depths (each depth duplicates the spatial set with K set). Depths
// outside [1, MaxFuse] are ignored; with no depths it defaults to {1, 2, 4},
// keeping the fused predefined set a small constant factor over the paper's
// spatial-only sets.
func (s Space) PredefinedFused(depths ...int) []Vector {
	if len(depths) == 0 {
		depths = []int{1, 2, 4}
	}
	base := s.Predefined()
	out := make([]Vector, 0, len(base)*len(depths))
	for _, k := range depths {
		if k < 1 || k > MaxFuse {
			continue
		}
		for _, v := range base {
			v.K = k
			out = append(out, v)
		}
	}
	return out
}

// RandomSet draws n distinct random vectors (distinct as far as possible;
// after 10n attempts duplicates are allowed so the call always terminates).
func (s Space) RandomSet(rng *rand.Rand, n int) []Vector {
	seen := make(map[Vector]bool, n)
	out := make([]Vector, 0, n)
	for attempts := 0; len(out) < n && attempts < 10*n; attempts++ {
		v := s.Random(rng)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for len(out) < n {
		out = append(out, s.Random(rng))
	}
	return out
}
