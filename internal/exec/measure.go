package exec

import (
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// Measurer times real executions of stencil instances. It implements the
// same evaluation contract as the perfmodel simulator, so the autotuner can
// run against either wall-clock measurements or the deterministic model
// (EvaluateMode in the public API).
//
// Measurements are precision-true: a stencil declaring stencil.Float32 is
// executed through the float32 runner on float32 workspaces, so its timing
// reflects genuine single-precision memory traffic; Float64 stencils run in
// double precision as before. Each element type owns its runner (worker pool
// + program cache) and workspace cache — the pools start lazily, so a
// workload of one precision never pays for the other.
//
// Besides the grid workspaces, the Measurer caches the executable kernel per
// kernel structure (appendExecutableKey), so the thousands of Measure calls a
// search issues, and requests that each build their own copy of one kernel,
// hit the Runner's compiled-program cache instead of rebuilding terms.
type Measurer struct {
	// Runner executes Float64 stencils (the name predates the split; kept
	// so existing callers tuning the double-precision engine still work).
	Runner *Runner[float64]
	// Runner32 executes Float32 stencils.
	Runner32 *Runner[float32]
	// Repetitions per measurement; the minimum time is reported, which is
	// the standard noise-rejection practice for microbenchmarks.
	Repetitions int

	// mu serializes measurements: it guards the caches below, and
	// interleaved wall-clock timings of a machine-saturating kernel would
	// corrupt each other anyway.
	mu sync.Mutex
	// cache of prepared workspaces keyed by geometry, one map per element
	// type, to avoid reallocating hundreds of MB per evaluation during a
	// search.
	ws64 map[wsKey]*workspace[float64]
	ws32 map[wsKey]*workspace[float32]
	// cache of executable realizations keyed by appendExecutableKey, so every
	// model kernel with the same executable terms — across requests that
	// each build their own *stencil.Kernel — hands the Runner's program
	// cache one stable kernel pointer.
	kernels map[string]*LinearKernel
}

type wsKey struct {
	size stencil.Size
	halo int
}

type workspace[T grid.Float] struct {
	out *grid.Grid[T]
	ins []*grid.Grid[T]
}

// NewMeasurer returns a measurer with 3 repetitions.
func NewMeasurer() *Measurer {
	return &Measurer{
		Runner:      NewRunner(),
		Runner32:    NewRunnerOf[float32](),
		Repetitions: 3,
		ws64:        make(map[wsKey]*workspace[float64]),
		ws32:        make(map[wsKey]*workspace[float32]),
		kernels:     make(map[string]*LinearKernel),
	}
}

// Close returns the cached workspace grids to the grid pool and stops the
// underlying runners' worker pools. The measurer may be reused afterwards:
// the next measurement re-acquires workspaces and restarts the pools.
func (m *Measurer) Close() {
	m.mu.Lock()
	releaseWorkspaces(m.ws64)
	releaseWorkspaces(m.ws32)
	m.mu.Unlock()
	m.Runner.Close()
	m.Runner32.Close()
}

func releaseWorkspaces[T grid.Float](ws map[wsKey]*workspace[T]) {
	for key, w := range ws {
		grid.ReleaseOf(w.out)
		for _, g := range w.ins {
			grid.ReleaseOf(g)
		}
		delete(ws, key)
	}
}

// WorkspaceBytes reports the total bytes of grid memory currently held in
// the measurer's cached workspaces, per element type. It exists so tests
// (and capacity planning) can assert the measurer allocates DataType-sized
// buffers — a Float32 instance must grow bytes32, never bytes64.
func (m *Measurer) WorkspaceBytes() (bytes32, bytes64 int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return workspaceBytes(m.ws32), workspaceBytes(m.ws64)
}

func workspaceBytes[T grid.Float](ws map[wsKey]*workspace[T]) int {
	total := 0
	for _, w := range ws {
		total += w.out.Len() * w.out.ElemBytes()
		for _, g := range w.ins {
			total += g.Len() * g.ElemBytes()
		}
	}
	return total
}

// CacheStats sums the program and layout cache counts of both runners. Like
// Runner.CacheStats it never waits for a measurement in flight.
func (m *Measurer) CacheStats() (programs, layouts CacheStats) {
	p64, l64 := m.Runner.CacheStats()
	p32, l32 := m.Runner32.CacheStats()
	return p64.plus(p32), l64.plus(l32)
}

// PoolStats sums the worker-pool counts of both runners. Like
// Runner.PoolStats it never waits for a measurement in flight.
func (m *Measurer) PoolStats() PoolStats {
	return m.Runner.PoolStats().plus(m.Runner32.PoolStats())
}

// maxCachedKernels bounds the executable-kernel cache; a stream of
// distinct kernel structures would otherwise grow it without limit.
const maxCachedKernels = 256

// executableFor returns the cached executable realization of a model
// kernel. Kernels with one appendExecutableKey key share it, so a kernel that shares
// its structure with an earlier one hits that kernel's compiled programs;
// the shared realization keeps the first kernel's name. A hit allocates
// nothing for keys that fit the stack buffer.
func (m *Measurer) executableFor(k *stencil.Kernel) *LinearKernel {
	var buf [256]byte
	key := appendExecutableKey(buf[:0], k)
	if lk, ok := m.kernels[string(key)]; ok {
		return lk
	}
	// Evict a single arbitrary entry at the bound: wiping the map would
	// orphan every cached Program at once (they are keyed by these
	// pointers) and collapse throughput for working sets near the bound.
	if len(m.kernels) >= maxCachedKernels {
		for old := range m.kernels {
			delete(m.kernels, old)
			break
		}
	}
	lk := Executable(k)
	m.kernels[string(key)] = lk
	return lk
}

// appendExecutableKey appends exactly what Executable reads of a model
// kernel: the Table III name when its textbook rule applies, the buffer
// count, and every shape point with its multiplicity, in shape.Points order.
func appendExecutableKey(b []byte, k *stencil.Kernel) []byte {
	if textbookRule(k) != nil {
		b = append(b, k.Name...)
	}
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(k.Buffers), 10)
	for _, p := range k.Shape.Points() {
		for _, v := range [...]int{p.X, p.Y, p.Z, k.Shape.Multiplicity(p)} {
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	return b
}

// workspaceFor returns the cached workspace for the instance geometry,
// growing an existing workspace's buffer list in place when a later kernel
// needs more input buffers than any previous one did. Workspace grids come
// from the grid pool (Close returns them), so interleaved searches over
// many geometries recycle buffers instead of churning the GC.
func workspaceFor[T grid.Float](ws map[wsKey]*workspace[T], q stencil.Instance, k *LinearKernel) *workspace[T] {
	halo := k.MaxOffset()
	key := wsKey{q.Size, halo}
	w, ok := ws[key]
	if !ok {
		haloZ := halo
		if q.Size.Is2D() {
			haloZ = 0
		}
		w = &workspace[T]{out: grid.AcquireOf[T](q.Size.X, q.Size.Y, q.Size.Z, halo, haloZ)}
		ws[key] = w
	}
	for len(w.ins) < k.Buffers {
		g := grid.AcquireOf[T](q.Size.X, q.Size.Y, q.Size.Z, w.out.Halo, w.out.HaloZ)
		g.FillPattern()
		w.ins = append(w.ins, g)
	}
	return w
}

// Measure reports the wall-clock seconds of one full sweep of the instance
// under the tuning vector, executed in the instance's declared DataType. The
// error is non-nil for invalid configurations.
func (m *Measurer) Measure(q stencil.Instance, t tunespace.Vector) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.measureLocked(q, m.executableFor(q.Kernel), t)
}

// MeasureBatch measures every tuning vector for one instance and returns
// the wall-clock seconds in input order. The whole batch runs under the
// measurer's lock: concurrent timings of a machine-saturating kernel would
// corrupt each other, so batches *serialize* onto the measuring runner —
// batching buys lock-acquisition amortization and a stable thermal window,
// never parallel timing. A vector that fails to compile reports math.Inf(1)
// at its slot; err is the first such failure (the batch still completes).
func (m *Measurer) MeasureBatch(q stencil.Instance, ts []tunespace.Vector) ([]float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]float64, len(ts))
	var firstErr error
	k := m.executableFor(q.Kernel)
	for i, tv := range ts {
		secs, err := m.measureLocked(q, k, tv)
		if err != nil {
			secs = math.Inf(1)
			if firstErr == nil {
				firstErr = err
			}
		}
		out[i] = secs
	}
	return out, firstErr
}

// Session is one caller's view of a Measurer with the evaluator contract
// of the perfmodel simulator: Runtime and RuntimeBatch report seconds, and a
// configuration the executor cannot run reports math.Inf(1) at its slot.
// The session keeps the executor's first such error, so a caller whose
// every measurement failed can report why instead of an infinite time.
// Measurements still serialize on the shared Measurer.
type Session struct {
	m   *Measurer
	mu  sync.Mutex
	err error
}

// Session returns a fresh per-caller session on the measurer.
func (m *Measurer) Session() *Session { return &Session{m: m} }

// Runtime measures one tuning vector.
func (s *Session) Runtime(q stencil.Instance, t tunespace.Vector) float64 {
	return s.RuntimeBatch(q, []tunespace.Vector{t})[0]
}

// RuntimeBatch measures a batch through MeasureBatch, keeping its error.
func (s *Session) RuntimeBatch(q stencil.Instance, ts []tunespace.Vector) []float64 {
	out, err := s.m.MeasureBatch(q, ts)
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
	}
	return out
}

// Err returns the first measurement error of the session, or nil.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// measureLocked is Measure's body for q's executable kernel k; callers hold
// m.mu. It dispatches to the runner and workspace cache matching the
// stencil's declared element type.
func (m *Measurer) measureLocked(q stencil.Instance, k *LinearKernel, t tunespace.Vector) (float64, error) {
	if q.Kernel != nil && q.Kernel.Type == stencil.Float32 {
		return measureIn(m.Runner32, m.ws32, m.Repetitions, q, k, t)
	}
	return measureIn(m.Runner, m.ws64, m.Repetitions, q, k, t)
}

// measureIn times one configuration on the given runner, in the runner's
// element type, as seconds per step: Compile decides whether the vector's
// fusion depth runs as a wavefront of Steps() steps or as one tiled step,
// and each timed Run is divided by the steps it advanced, so fused and
// unfused vectors compete on the same per-step axis the tuner ranks by.
func measureIn[T grid.Float](r *Runner[T], ws map[wsKey]*workspace[T], reps int, q stencil.Instance, k *LinearKernel, t tunespace.Vector) (float64, error) {
	w := workspaceFor(ws, q, k)
	ins := w.ins[:k.Buffers]
	prog, err := r.Compile(k, w.out, ins, t)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for rep := 0; rep < max(1, reps); rep++ {
		start := time.Now()
		if err := prog.Run(w.out, ins); err != nil {
			return 0, err
		}
		elapsed := time.Since(start).Seconds() / float64(prog.Steps())
		if rep == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}
