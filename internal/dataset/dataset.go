// Package dataset implements the training-set generation of Section V-B:
// 60 automatically generated stencil codes built from the four Fig. 1 shape
// families at different offsets, buffer counts and data types; 200 training
// instances obtained by pairing those kernels with the paper's training input
// sizes (64³/128³/256³ for 3-D, 256²/512²/1024²/2048² for 2-D); and, per
// instance, a set of randomly generated tuning vectors — twice as many for
// 3-D kernels, whose search space is larger.
//
// Each execution is evaluated through an Evaluator (the perfmodel simulator
// or the real exec.Measurer), ranked within its instance, encoded into a
// feature vector and stored in an svmrank.Dataset. Measure-mode evaluation
// is precision-true: the float32 half of the training kernels is executed on
// float32 workspaces, so the dtype feature corresponds to genuinely
// different measured costs, exactly as on the paper's testbed.
package dataset

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/feature"
	"repro/internal/shape"
	"repro/internal/stencil"
	"repro/internal/svmrank"
	"repro/internal/tunespace"
)

// Evaluator produces the runtime of one stencil execution. Implemented by
// *perfmodel.Model (simulation) and adapted from *exec.Measurer (wall clock).
type Evaluator interface {
	Runtime(q stencil.Instance, t tunespace.Vector) float64
}

// TrainingKernels generates the 60 training stencil codes of Sec. V-B: the
// full cross product of dimensionality {2,3} × shape family (Fig. 1) ×
// offset {1,2,3} × data type {float,double} (48 kernels), plus 12
// multi-buffer variants covering the 3-buffer access pattern the benchmark
// suite contains (tricubic, divergence).
func TrainingKernels() []*stencil.Kernel {
	var out []*stencil.Kernel
	add := func(dims int, fam shape.Family, off, buffers int, dt stencil.DataType) {
		name := fmt.Sprintf("train-%dd-%s-o%d-b%d-%s", dims, fam, off, buffers, dt)
		out = append(out, &stencil.Kernel{
			Name:    name,
			Shape:   shape.Generate(fam, dims, off),
			Buffers: buffers,
			Type:    dt,
		})
	}
	for _, dims := range []int{2, 3} {
		for _, fam := range shape.Families() {
			for off := 1; off <= 3; off++ {
				for _, dt := range []stencil.DataType{stencil.Float32, stencil.Float64} {
					add(dims, fam, off, 1, dt)
				}
			}
		}
	}
	// Multi-buffer variants: both dims × {hypercube, laplacian, line} ×
	// offsets {1,2} with 3 buffers (float), covering the tricubic- and
	// divergence-like access structures.
	for _, dims := range []int{2, 3} {
		for _, fam := range []shape.Family{shape.FamilyHypercube, shape.FamilyLaplacian, shape.FamilyLine} {
			for off := 1; off <= 2; off++ {
				add(dims, fam, off, 3, stencil.Float32)
			}
		}
	}
	return out
}

// TrainingInstances pairs the training kernels with the Sec. V-B input sizes
// and trims the list to exactly the paper's 200 instances.
func TrainingInstances() []stencil.Instance {
	var out []stencil.Instance
	for _, k := range TrainingKernels() {
		if k.Dims() == 2 {
			for _, s := range stencil.TrainingSizes2D() {
				out = append(out, stencil.Instance{Kernel: k, Size: s})
			}
		} else {
			for _, s := range stencil.TrainingSizes3D() {
				out = append(out, stencil.Instance{Kernel: k, Size: s})
			}
		}
	}
	// The cross product yields 210; the paper uses 200. Drop the largest
	// input of the last ten 2-D kernels (deterministic trim).
	if len(out) > 200 {
		trimmed := make([]stencil.Instance, 0, 200)
		drop := len(out) - 200
		// Walk backwards marking large-2-D instances to drop.
		toDrop := make(map[int]bool, drop)
		for i := len(out) - 1; i >= 0 && len(toDrop) < drop; i-- {
			q := out[i]
			if q.Size.Is2D() && q.Size.X == 2048 {
				toDrop[i] = true
			}
		}
		for i, q := range out {
			if !toDrop[i] {
				trimmed = append(trimmed, q)
			}
		}
		out = trimmed
	}
	return out
}

// Execution is one evaluated training point.
type Execution struct {
	Instance stencil.Instance
	Tuning   tunespace.Vector
	Runtime  float64
}

// Sampling selects how tuning vectors are drawn for each instance.
type Sampling int

const (
	// UniformRandom draws log-uniform random vectors (the paper's method).
	UniformRandom Sampling = iota
	// HeuristicMixed implements the future-work direction of the paper's
	// conclusion ("heuristic methods to gather training data"): half the
	// budget is random, a quarter samples the power-of-two lattice the
	// standalone tuner will later rank, and a quarter refines the best
	// vectors seen so far by mutation — concentrating training signal
	// near the performance frontier where ranking precision matters.
	HeuristicMixed
)

func (s Sampling) String() string {
	if s == HeuristicMixed {
		return "heuristic"
	}
	return "random"
}

// Options configures training-set generation.
type Options struct {
	// TargetPoints is the requested dataset size (a Table II row: 960 …
	// 32000). The actual size matches exactly: tuning-vector counts per
	// instance are balanced so 3-D instances get twice the 2-D count.
	TargetPoints int
	// Seed drives the random tuning-vector draws. Every instance gets its
	// own seed-derived RNG stream, so the generated Set depends only on
	// Seed — never on Workers or scheduling.
	Seed int64
	// Sampling selects the tuning-vector draw strategy.
	Sampling Sampling
	// Workers bounds how many training instances are evaluated and encoded
	// concurrently. 0 or 1 generates sequentially; negative selects
	// GOMAXPROCS. The evaluator must be safe for concurrent use when more
	// than one worker runs (both in-tree evaluators are).
	Workers int
}

// Set is a generated training set with its provenance.
type Set struct {
	Data       *svmrank.Dataset
	Executions []Execution
	Instances  []stencil.Instance
	// SimulatedExecTime is the summed runtime of all training executions —
	// the "TS Generation" column of Table II (what a real testbed would
	// spend running the training codes).
	SimulatedExecTime time.Duration
	// SimulatedCompileTime is the accounted PATUS+gcc double-compilation
	// cost — the "TS Comp." column of Table II.
	SimulatedCompileTime time.Duration
	// WallTime is how long generation actually took in this process.
	WallTime time.Duration
}

// Generate builds a training set of exactly opt.TargetPoints executions.
func Generate(eval Evaluator, opt Options) (*Set, error) {
	if opt.TargetPoints <= 0 {
		return nil, fmt.Errorf("dataset: target points %d must be positive", opt.TargetPoints)
	}
	start := time.Now()
	instances := TrainingInstances()

	// Budget split: 3-D instances receive twice the tuning vectors of 2-D
	// ones (Sec. V-B). Weight 1 for 2-D, 2 for 3-D.
	totalWeight := 0
	for _, q := range instances {
		if q.Size.Is2D() {
			totalWeight++
		} else {
			totalWeight += 2
		}
	}
	if opt.TargetPoints < totalWeight {
		// Small sets: take a prefix of instances, one (or two) points each,
		// preserving kernel diversity by striding through the list.
		return generateSmall(eval, instances, opt, start)
	}

	base := opt.TargetPoints / totalWeight
	remainder := opt.TargetPoints - base*totalWeight

	jobs := make([]genJob, 0, len(instances))
	for _, q := range instances {
		n := base
		if !q.Size.Is2D() {
			n *= 2
		}
		// Spread the remainder over the leading instances.
		if remainder > 0 {
			n++
			remainder--
		}
		jobs = append(jobs, genJob{q: q, n: n})
	}
	set := &Set{Instances: instances, Data: &svmrank.Dataset{}}
	runJobs(set, eval, jobs, opt)
	set.WallTime = time.Since(start)
	return set, nil
}

// generateSmall handles targets smaller than the instance count.
func generateSmall(eval Evaluator, instances []stencil.Instance, opt Options, start time.Time) (*Set, error) {
	set := &Set{Data: &svmrank.Dataset{}}
	// At least 2 executions per chosen instance so each query yields pairs.
	perInstance := 2
	nInstances := opt.TargetPoints / perInstance
	if nInstances == 0 {
		nInstances = 1
		perInstance = opt.TargetPoints
	}
	stride := len(instances) / nInstances
	if stride == 0 {
		stride = 1
	}
	var jobs []genJob
	remaining := opt.TargetPoints
	for i := 0; i < len(instances) && remaining > 0; i += stride {
		q := instances[i]
		n := min(perInstance, remaining)
		set.Instances = append(set.Instances, q)
		jobs = append(jobs, genJob{q: q, n: n})
		remaining -= n
	}
	runJobs(set, eval, jobs, opt)
	set.WallTime = time.Since(start)
	return set, nil
}

// genJob is one instance's share of the target: draw and evaluate n tuning
// vectors for q.
type genJob struct {
	q stencil.Instance
	n int
}

// partial is the output of one job, assembled into the Set in job order so
// the result is independent of scheduling.
type partial struct {
	executions  []Execution
	examples    []svmrank.Example
	execTime    time.Duration
	compileTime time.Duration
}

// runJobs evaluates every job — sequentially or on opt.Workers goroutines —
// and appends the results to set in job order. Each job draws from its own
// RNG stream derived from (opt.Seed, job index), so the assembled Set is
// byte-identical for every worker count.
func runJobs(set *Set, eval Evaluator, jobs []genJob, opt Options) {
	workers := opt.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(max(workers, 1), len(jobs))

	parts := make([]partial, len(jobs))
	run := func(i int) {
		rng := rand.New(rand.NewSource(jobSeed(opt.Seed, i)))
		parts[i] = generateInstance(eval, jobs[i].q, jobs[i].n, rng, opt.Sampling)
	}
	if workers <= 1 {
		for i := range jobs {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	total := 0
	for _, p := range parts {
		total += len(p.executions)
	}
	set.Executions = slices.Grow(set.Executions, total)
	set.Data.Examples = slices.Grow(set.Data.Examples, total)
	for _, p := range parts {
		set.Executions = append(set.Executions, p.executions...)
		set.Data.Examples = append(set.Data.Examples, p.examples...)
		set.SimulatedExecTime += p.execTime
		set.SimulatedCompileTime += p.compileTime
	}
}

// jobSeed derives an independent RNG stream per job from the user seed with
// a splitmix64 step — adjacent seeds/job indices decorrelate fully.
func jobSeed(seed int64, job int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(job+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// generateInstance draws n tuning vectors for q with the chosen sampling
// strategy, evaluates and encodes them, and accounts simulated costs.
func generateInstance(eval Evaluator, q stencil.Instance, n int, rng *rand.Rand, sampling Sampling) partial {
	space := tunespace.NewSpace(q.Kernel.Dims())
	var vectors []tunespace.Vector
	if sampling == HeuristicMixed {
		vectors = heuristicSample(eval, q, space, n, rng)
	} else {
		vectors = space.RandomSet(rng, n)
	}
	p := partial{
		executions: make([]Execution, 0, len(vectors)),
		examples:   make([]svmrank.Example, 0, len(vectors)),
	}
	if be, ok := eval.(BatchEvaluator); ok {
		// Batch-capable evaluators cost the whole draw in one call (the
		// heuristic sampler already spent its refinement probes above).
		runtimes := be.RuntimeBatch(q, vectors)
		for i, tv := range vectors {
			p.add(q, tv, runtimes[i])
		}
		return p
	}
	for _, tv := range vectors {
		p.add(q, tv, eval.Runtime(q, tv))
	}
	return p
}

func (p *partial) add(q stencil.Instance, tv tunespace.Vector, rt float64) {
	p.executions = append(p.executions, Execution{Instance: q, Tuning: tv, Runtime: rt})
	p.examples = append(p.examples, svmrank.Example{Query: q.ID(), X: feature.NewEncoder().Encode(q, tv), Y: rt})
	p.execTime += time.Duration(rt * float64(time.Second))
	p.compileTime += CompileCost(q.Kernel, tv)
}

// heuristicSample implements the HeuristicMixed draw: ~half random, ~quarter
// power-of-two lattice points, ~quarter mutation-refined around the best
// vector evaluated so far.
func heuristicSample(eval Evaluator, q stencil.Instance, space tunespace.Space, n int, rng *rand.Rand) []tunespace.Vector {
	nRandom := (n + 1) / 2
	nLattice := n / 4
	nRefine := n - nRandom - nLattice

	out := space.RandomSet(rng, nRandom)
	lattice := space.Predefined()
	for i := 0; i < nLattice; i++ {
		out = append(out, lattice[rng.Intn(len(lattice))])
	}
	if nRefine > 0 {
		// Best of what we have so far (evaluations here are part of the
		// training-set generation budget).
		best := out[0]
		bestR := eval.Runtime(q, best)
		for _, v := range out[1:] {
			if r := eval.Runtime(q, v); r < bestR {
				best, bestR = v, r
			}
		}
		for i := 0; i < nRefine; i++ {
			out = append(out, space.Mutate(rng, best, 0.5))
		}
	}
	return out
}

// Len returns the number of training points.
func (s *Set) Len() int { return len(s.Executions) }
