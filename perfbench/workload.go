package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/shape"
	"repro/internal/stencil"
)

// request is one tuning request of a workload: the wire body the server
// receives and the instance it describes, which the output check and the
// quality scoring rebuild in-process.
type request struct {
	// Key names the (kernel structure, size) instance; the generators use it
	// to keep cold and measure keys from ever repeating.
	Key  string
	Body []byte
	Inst stencil.Instance
}

// Workload parameters. They are recorded in every result's provenance.
const (
	hotCatalogSize = 64  // Table III (kernel, size) keys primed in set-up
	hotZipfS       = 1.1 // Zipf exponent of the hot key draw
	measureTopK    = 4   // candidates each measure request executes
	qualityCount   = 128 // distinct cold or measure instances the quality metrics score
)

// measurePoints are the stencil point counts of the measure kernels, centre
// included.
var measurePoints = []int{6, 8, 10, 12, 14}

// hotCallers is the number of closed-loop callers on hot: one per CPU.
func hotCallers(nproc int) int { return max(nproc, 1) }

// measureSizes are the cube edges of the measure workload; a small fixed set
// so the executor's workspaces are reused across requests.
var measureSizes = []int{32, 48, 64}

// workloadParams describes a workload's fixed parameters for the provenance
// header.
func workloadParams(name string, nproc int) map[string]any {
	switch name {
	case "hot":
		return map[string]any{"callers": hotCallers(nproc), "catalog": hotCatalogSize, "zipf_s": hotZipfS, "mode": "sim", "topk": 0}
	case "cold":
		return map[string]any{"callers": 1, "mode": "sim", "topk": 0, "keys": "distinct Table III kernel x size"}
	case "measure":
		return map[string]any{"callers": 1, "mode": "measure", "topk": measureTopK, "cube_sizes": measureSizes, "points": measurePoints, "kernels": "distinct offset lists, radius <= 2, float64"}
	}
	return nil
}

// tableIII are the benchmark kernels of Table III, built once.
var tableIII = stencil.BenchmarkKernels()

func tuneBody(kernelJSON, size, extra string) []byte {
	return []byte(`{"kernel":` + kernelJSON + `,"size":"` + size + `"` + extra + `}`)
}

func namedRequest(k *stencil.Kernel, sz stencil.Size) request {
	return request{
		Key:  k.Name + "/" + sz.String(),
		Body: tuneBody(strconv.Quote(k.Name), sz.String(), ""),
		Inst: stencil.Instance{Kernel: k, Size: sz},
	}
}

// sizeStrata is how many bands each edge range is split into. The n-th
// draw of a kernel takes its edges from band n mod sizeStrata, so a catalog
// or a run covers small and large instances in fixed proportions.
const sizeStrata = 8

// drawTableIIISize draws a size for a Table III kernel from a band of its
// edge range: 2-D planes have edges in [128, 4088], 3-D boxes in [32, 508].
// Each band of each kernel holds thousands of keys, far more than any run
// requests.
func drawTableIIISize(rng *rand.Rand, k *stencil.Kernel, band int) stencil.Size {
	edge := func(lo, step, n int) int {
		width := n / sizeStrata
		return lo + step*(band%sizeStrata*width+rng.Intn(width))
	}
	if k.Dims() == 2 {
		return stencil.Size2D(edge(128, 8, 496), edge(128, 8, 496))
	}
	return stencil.Size3D(edge(32, 4, 120), edge(32, 4, 120), edge(32, 4, 120))
}

// hotCatalog returns the seed's hotCatalogSize distinct Table III keys, in
// Zipf rank order (index 0 is the hottest). The ranks cycle through the nine
// kernels in Table III order, so every seed sends each kernel the same share
// of traffic; a cached reply's cost depends on the kernel, not on the size.
// The seed draws the sizes and the request order.
func hotCatalog(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []request
	for len(out) < hotCatalogSize {
		k := tableIII[len(out)%len(tableIII)]
		r := namedRequest(k, drawTableIIISize(rng, k, len(out)/len(tableIII)))
		if !seen[r.Key] {
			seen[r.Key] = true
			out = append(out, r)
		}
	}
	return out
}

// sequence is an endless, seed-determined stream of requests.
type sequence interface {
	next() request
}

// hotSeq draws catalog entries by Zipf rank. Each caller owns one, seeded
// from the workload seed and its index, so the per-caller request order is
// fixed however the callers interleave.
type hotSeq struct {
	cat  []request
	zipf *rand.Zipf
}

func newHotSeq(cat []request, seed int64, caller int) *hotSeq {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(caller) + 1))
	return &hotSeq{cat: cat, zipf: rand.NewZipf(rng, hotZipfS, 1, uint64(len(cat)-1))}
}

func (s *hotSeq) next() request { return s.cat[s.zipf.Uint64()] }

// coldSeq emits Table III keys that never repeat. Kernels rotate through a
// fresh permutation of the nine every nine requests, so each run ranks the
// same mix of 2-D (1,600 candidates) and 3-D (8,640) sets, and each
// kernel's sizes cycle through the size bands.
type coldSeq struct {
	rng   *rand.Rand
	seen  map[string]bool
	order []int
	drawn []int // requests per kernel so far
}

func newColdSeq(seed int64) *coldSeq {
	return &coldSeq{rng: rand.New(rand.NewSource(seed*7919 + 17)), seen: map[string]bool{}, drawn: make([]int, len(tableIII))}
}

func (s *coldSeq) next() request {
	if len(s.order) == 0 {
		s.order = s.rng.Perm(len(tableIII))
	}
	ki := s.order[0]
	s.order = s.order[1:]
	band := s.drawn[ki]
	s.drawn[ki]++
	// A band runs out of unused keys only after thousands of requests;
	// then the next band takes over.
	for tries := 1; ; tries++ {
		r := namedRequest(tableIII[ki], drawTableIIISize(s.rng, tableIII[ki], band+tries/64))
		if !s.seen[r.Key] {
			s.seen[r.Key] = true
			return r
		}
	}
}

// measureSeq emits hybrid measure-mode tunes of distinct offset-list
// kernels (radius <= 2, float64). Every block of fifteen requests covers
// each (cube size, point count) pair of measureSizes x measurePoints once,
// in a fresh order, so each run measures the same mix of work.
type measureSeq struct {
	rng   *rand.Rand
	seen  map[string]bool
	order []int
	n     int
}

func newMeasureSeq(seed int64) *measureSeq {
	return &measureSeq{rng: rand.New(rand.NewSource(seed*104729 + 29)), seen: map[string]bool{}}
}

func (s *measureSeq) next() request {
	if len(s.order) == 0 {
		s.order = s.rng.Perm(len(measureSizes) * len(measurePoints))
	}
	edge := measureSizes[s.order[0]%len(measureSizes)]
	want := measurePoints[s.order[0]/len(measureSizes)]
	s.order = s.order[1:]
	for {
		pts := []shape.Point{{}}
		have := map[shape.Point]bool{{}: true}
		depth := false
		for len(pts) < want {
			p := shape.Point{X: s.rng.Intn(5) - 2, Y: s.rng.Intn(5) - 2, Z: s.rng.Intn(5) - 2}
			if !have[p] {
				have[p] = true
				pts = append(pts, p)
				depth = depth || p.Z != 0
			}
		}
		// A plane of offsets makes a 2-D kernel, which the executor cannot
		// run on a cube: every candidate would fail to measure.
		if !depth {
			continue
		}
		// The key is the sorted offset set: structurally equal kernels share
		// a server cache entry, so only a new set is a new key.
		sorted := append([]shape.Point(nil), pts...)
		sort.Slice(sorted, func(i, j int) bool {
			a, b := sorted[i], sorted[j]
			if a.X != b.X {
				return a.X < b.X
			}
			if a.Y != b.Y {
				return a.Y < b.Y
			}
			return a.Z < b.Z
		})
		var key strings.Builder
		for _, p := range sorted {
			fmt.Fprintf(&key, "%d,%d,%d;", p.X, p.Y, p.Z)
		}
		sz := stencil.Size3D(edge, edge, edge)
		keyStr := key.String() + "/" + sz.String()
		if s.seen[keyStr] {
			continue
		}
		s.seen[keyStr] = true
		s.n++
		return offsetRequest(fmt.Sprintf("m%d", s.n), pts, sz, keyStr)
	}
}

// offsetRequest builds the measure request for an offset list, and the
// kernel the server builds from it: unit weights, one buffer, float64.
func offsetRequest(name string, pts []shape.Point, sz stencil.Size, key string) request {
	sh := shape.New()
	var offs strings.Builder
	for i, p := range pts {
		sh.Add(p, 1)
		if i > 0 {
			offs.WriteByte(',')
		}
		fmt.Fprintf(&offs, "[%d,%d,%d]", p.X, p.Y, p.Z)
	}
	kernelJSON := `{"name":"` + name + `","offsets":[` + offs.String() + `],"dtype":"float64"}`
	return request{
		Key:  key,
		Body: tuneBody(kernelJSON, sz.String(), `,"topk":`+strconv.Itoa(measureTopK)+`,"mode":"measure"`),
		Inst: stencil.Instance{Kernel: &stencil.Kernel{Name: name, Shape: sh, Buffers: 1, Type: stencil.Float64}, Size: sz},
	}
}

// newSequence returns caller's request stream of a workload.
func newSequence(workload string, seed int64, caller int, cat []request) sequence {
	switch workload {
	case "hot":
		return newHotSeq(cat, seed, caller)
	case "cold":
		return newColdSeq(seed)
	default:
		return newMeasureSeq(seed)
	}
}

// qualityInstances are the distinct instances the quality metrics score: the
// hot catalog, or the first qualityCount requests of the cold and measure
// streams. They depend on the seed alone, never on how far a run got.
func qualityInstances(workload string, seed int64, cat []request) []stencil.Instance {
	if workload == "hot" {
		out := make([]stencil.Instance, len(cat))
		for i, r := range cat {
			out[i] = r.Inst
		}
		return out
	}
	seq := newSequence(workload, seed, 0, cat)
	out := make([]stencil.Instance, qualityCount)
	for i := range out {
		out[i] = seq.next().Inst
	}
	return out
}
