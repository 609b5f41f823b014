// Package perfmodel is the deterministic performance simulator that stands in
// for the paper's PATUS-generated binaries running on the Xeon E5-2680 v3
// (README: the Simulate evaluation mode, next to the real executor's Measure).
//
// The model is an analytic roofline-style cost model over the blocked,
// unrolled, chunk-scheduled loop nest that PATUS emits. For one execution
// (kernel k, size s, tuning t = (bx,by,bz,u,c)) it combines:
//
//  1. Memory traffic. Every sweep must move the compulsory grid bytes; the
//     blocking decides how often neighbouring planes are *re*-read: if the
//     (2·off+1)-plane reuse window of a tile fits in L2 the inputs stream
//     once, if only the row window fits each z-offset re-reads its plane,
//     and degenerate tiles additionally pay inter-tile halo traffic
//     (footprint / interior ratio). Grids small enough to live in the
//     shared L3 see cache instead of DRAM bandwidth, and DRAM bandwidth is
//     derated for the stencil access pattern.
//  2. Compute throughput: flops and vector loads per point over the SIMD
//     lanes, derated by a fixed code-generation efficiency.
//  3. Unrolling: longer dependency-free bodies hide instruction latency,
//     but unrolled bodies whose live values exceed the register file spill.
//  4. Loop overhead: per-iteration control cost shrinks with unrolling;
//     tiny tiles pay per-row and per-tile startup costs.
//  5. TLB: tiles whose concurrent row streams span too many pages stall.
//  6. Threading: tiles are dispatched in chunks of c consecutive tiles;
//     few chunks leave cores idle (imbalance), many chunks pay dispatch.
//
// A deterministic hash-seeded noise term (±few %) makes the induced partial
// orders realistic (near-ties can swap) while keeping every experiment
// reproducible — run-to-run variance on real hardware plays the same role in
// the paper.
package perfmodel

import (
	"hash/fnv"
	"math"

	"repro/internal/machine"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// Calibration constants. These derate theoretical peaks to the fraction
// realistic stencil code achieves; they set absolute magnitudes only and do
// not affect which tuning wins.
const (
	// computeEff is the fraction of peak vector issue realistic generated
	// stencil code sustains (address arithmetic, unaligned loads, …).
	computeEff = 0.30
	// dramEff derates the STREAM bandwidth for stencil access patterns.
	dramEff = 0.40
	// writeAllocFactor accounts for read-for-ownership on stores.
	writeAllocFactor = 2.0
)

// Model evaluates executions on a described machine.
//
// A Model is read-only once configured: Runtime and Evaluate are
// pure functions of (M, NoiseAmp, Seed) and the arguments, touching no
// mutable state. One model may therefore serve any number of goroutines
// concurrently — batch evaluators and parallel dataset generation rely on
// this. (Reconfiguring the fields mid-flight is the caller's race.)
type Model struct {
	M *machine.Machine
	// NoiseAmp is the relative amplitude of the deterministic noise term
	// (default 0.03). Zero disables noise entirely.
	NoiseAmp float64
	// Seed perturbs the noise hash, giving independent "re-measurements".
	Seed uint64
}

// New returns a model of the given machine with the default ±3% noise.
func New(m *machine.Machine) *Model {
	return &Model{M: m, NoiseAmp: 0.03}
}

// Breakdown exposes the intermediate quantities of one evaluation, for tests,
// docs and the model-inspection tooling.
type Breakdown struct {
	TilePoints      float64 // interior points per full tile
	ReuseFactor     float64 // how often each input byte is re-read
	HaloRatio       float64 // inter-tile footprint / interior ratio
	TrafficPerPoint float64 // bytes per updated point
	BandwidthGBs    float64 // per-core bandwidth the traffic is served at
	MemNsPerPoint   float64
	CompNsPerPoint  float64
	OverheadNs      float64 // loop/row/tile control overhead per point
	SIMDEfficiency  float64
	UnrollFactor    float64 // compute-time multiplier from unrolling
	TLBPenalty      float64
	Tiles           int
	Groups          int // dispatch units: ceil(tiles / c)
	Parallelism     float64
	DispatchNs      float64 // total dispatch cost
	Seconds         float64 // final runtime
	GFlops          float64
}

// Runtime returns the simulated wall-clock seconds of executing the stencil
// instance with the given tuning vector, sweeping the full grid once.
func (m *Model) Runtime(q stencil.Instance, t tunespace.Vector) float64 {
	return m.Evaluate(q, t).Seconds
}

// Evaluate computes the full cost breakdown for one execution.
func (m *Model) Evaluate(q stencil.Instance, t tunespace.Vector) Breakdown {
	k := q.Kernel
	sz := q.Size
	mach := m.M

	off := k.Shape.MaxOffset()
	offZ := off
	if sz.Is2D() {
		offZ = 0
	}
	bytes := float64(k.Type.Bytes())

	// Effective tile extents: blocks never exceed the grid.
	ebx := min(t.Bx, sz.X)
	eby := min(t.By, sz.Y)
	ebz := 1
	if !sz.Is2D() {
		ebz = min(max(t.Bz, 1), sz.Z)
	}

	var b Breakdown
	b.TilePoints = float64(ebx) * float64(eby) * float64(ebz)

	// --- 1. Memory traffic -------------------------------------------------
	// Reuse analysis against the per-core L2: the plane window keeps all
	// (2·offZ+1) z-planes of the tile cross-section live; the row window
	// keeps the (2·off+1) y-rows.
	l2 := float64(mach.EffectiveBytes(1))
	planeWindow := float64(ebx+2*off) * float64(eby+2*off) * float64(2*offZ+1) *
		bytes * float64(k.Buffers)
	rowWindow := float64(ebx+2*off) * float64(2*off+1) * bytes * float64(k.Buffers)
	switch {
	case planeWindow <= l2:
		b.ReuseFactor = 1
	case rowWindow <= l2:
		b.ReuseFactor = float64(2*offZ + 1)
	default:
		// No cache reuse at all: every access misses.
		b.ReuseFactor = float64(k.Shape.TotalAccesses()) / float64(k.Buffers)
	}

	// Inter-tile halo traffic: tiles re-read their halo shells.
	foot := float64(ebx+2*off) * float64(eby+2*off) * float64(ebz+2*offZ)
	b.HaloRatio = foot / b.TilePoints

	inputPerPoint := bytes * float64(k.Buffers) * b.ReuseFactor * b.HaloRatio
	writePerPoint := writeAllocFactor * bytes
	b.TrafficPerPoint = inputPerPoint + writePerPoint

	// Bandwidth: grids resident in the shared L3 see cache bandwidth;
	// otherwise the per-core share of derated DRAM bandwidth.
	gridBytes := float64(sz.Points()) * bytes * float64(k.Buffers+1)
	b.BandwidthGBs = mach.MemBandwidthGBs * dramEff / float64(mach.Cores)
	cacheResident := false
	cacheBW := b.BandwidthGBs
	for _, c := range mach.Caches {
		if c.Shared {
			if cacheBW < c.BandwidthGBs {
				cacheBW = c.BandwidthGBs
			}
			if gridBytes <= float64(c.SizeBytes) {
				cacheResident = true
				b.BandwidthGBs = c.BandwidthGBs
			}
		}
	}
	b.MemNsPerPoint = b.TrafficPerPoint / b.BandwidthGBs

	// --- 2/3. Compute with SIMD and unrolling ------------------------------
	lanes := mach.SIMDLanes(k.Type.Bytes())
	vecIters := math.Ceil(float64(ebx) / float64(lanes))
	b.SIMDEfficiency = float64(ebx) / (vecIters * float64(lanes))

	u := t.U
	// Latency hiding: a serial non-unrolled body exposes dependency stalls;
	// unrolling toward independent accumulators approaches full issue.
	exposed := 1.6 / (1.0 + float64(u))
	// Register pressure: live values grow with the unroll depth and the
	// shape density; AVX2 offers 16 architectural vector registers.
	live := float64(u+1) * math.Sqrt(float64(k.Shape.TotalAccesses()))
	spill := 1.0
	const registers = 16
	if live > registers {
		spill = 1 + 0.35*math.Log2(live/registers)
	}
	b.UnrollFactor = (1 + exposed) * spill

	// Two vector FMA pipes -> 4·lanes flops/cycle; one vector load per
	// cycle -> lanes loads/cycle. Both derated by computeEff.
	flopCycles := float64(k.Flops()) / (4 * float64(lanes) * b.SIMDEfficiency)
	loadCycles := float64(k.Shape.TotalAccesses()) / float64(lanes)
	issueCycles := math.Max(flopCycles, loadCycles) / computeEff
	b.CompNsPerPoint = issueCycles * mach.CycleNs() * b.UnrollFactor

	// --- 4. Loop / row / tile control overhead -----------------------------
	iterOvh := mach.LoopOverheadCycles * mach.CycleNs() / float64(max(1, u)) / float64(lanes)
	rowOvh := 8 * mach.CycleNs() / float64(ebx)   // per-row setup amortized over the row
	tileOvh := 60 * mach.CycleNs() / b.TilePoints // per-tile setup amortized over the tile
	b.OverheadNs = iterOvh + rowOvh + tileOvh

	// --- 5. TLB pressure ----------------------------------------------------
	streams := float64(eby) * float64(ebz) * float64(k.Buffers)
	b.TLBPenalty = 1.0
	const tlbEntries = 1024
	if streams > tlbEntries {
		b.TLBPenalty = 1 + 0.25*math.Log2(streams/tlbEntries)
	}

	// --- Temporal fusion ----------------------------------------------------
	// A fusion depth above 1 executes K timesteps per sweep through the
	// wavefront program exec.Runner.Compile builds. Modeled per-step
	// effects, all gated on EffFuse() > 1 so unfused evaluations are
	// bit-identical to the pre-fusion model:
	//   - DRAM-bound grids amortize the compulsory traffic over K steps;
	//     intermediate levels stream through the shared cache instead.
	//     Cache-resident grids keep their bandwidth (fusion cannot help).
	//   - Redundant recomputation: the K-1 intermediate levels each extend
	//     the sweep by wrapped extension planes near the periodic seam.
	//   - Wavefront synchronization: one worker rendezvous per stream plane
	//     instead of one per sweep.
	var fusedSyncNs float64
	if kf := t.EffFuse(); kf > 1 && k.Buffers == 1 {
		streamExtent := sz.Z
		if sz.Is2D() {
			streamExtent = sz.Y
		}
		if !cacheResident {
			b.MemNsPerPoint = b.MemNsPerPoint/float64(kf) +
				(1-1/float64(kf))*b.TrafficPerPoint/cacheBW
		}
		redundancy := 1 + float64((kf-1)*off)/float64(max(1, streamExtent))
		b.CompNsPerPoint *= redundancy
		iterations := float64(streamExtent + (kf-1)*(2*off+1))
		fusedSyncNs = iterations * mach.ThreadSpawnOverheadNs / float64(kf)
	}

	// Roofline combination: overlap memory and compute, pay overheads on top.
	perPoint := math.Max(b.MemNsPerPoint*b.TLBPenalty, b.CompNsPerPoint) + b.OverheadNs

	// --- 6. Threading: chunked tile dispatch --------------------------------
	tilesX := ceilDiv(sz.X, max(1, t.Bx))
	tilesY := ceilDiv(sz.Y, max(1, t.By))
	tilesZ := 1
	if !sz.Is2D() {
		tilesZ = ceilDiv(sz.Z, max(1, t.Bz))
	}
	b.Tiles = tilesX * tilesY * tilesZ
	b.Groups = ceilDiv(b.Tiles, max(1, t.C))

	cores := float64(mach.Cores)
	// Rounds of group execution: the last round may be partially filled.
	rounds := math.Ceil(float64(b.Groups) / cores)
	b.Parallelism = float64(b.Groups) / rounds
	if b.Parallelism > cores {
		b.Parallelism = cores
	}

	totalWorkNs := float64(sz.Points()) * perPoint
	execNs := totalWorkNs / b.Parallelism
	b.DispatchNs = float64(b.Groups)*mach.ThreadSpawnOverheadNs/cores + fusedSyncNs
	totalNs := execNs + b.DispatchNs

	// Deterministic noise.
	if m.NoiseAmp > 0 {
		totalNs *= 1 + m.NoiseAmp*(2*m.hash01(q, t)-1)
	}

	b.Seconds = totalNs * 1e-9
	b.GFlops = float64(sz.Points()) * float64(k.Flops()) / totalNs
	return b
}

// hash01 maps an execution to a deterministic pseudo-random value in [0, 1).
func (m *Model) hash01(q stencil.Instance, t tunespace.Vector) float64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	writeU64(m.Seed)
	h.Write([]byte(q.Kernel.Name))
	writeU64(uint64(q.Size.X))
	writeU64(uint64(q.Size.Y))
	writeU64(uint64(q.Size.Z))
	writeU64(uint64(t.Bx))
	writeU64(uint64(t.By))
	writeU64(uint64(t.Bz))
	writeU64(uint64(t.U))
	writeU64(uint64(t.C))
	// Fusion depth joins the hash only when it changes execution (EffFuse > 1),
	// so every pre-fusion simulated measurement is reproduced bit-identically.
	if kf := t.EffFuse(); kf > 1 {
		writeU64(uint64(kf))
	}
	return float64(h.Sum64()>>11) / float64(1<<53)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
