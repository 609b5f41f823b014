package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/grid"
)

// workerPool is a Runner's persistent execution crew: long-lived goroutines
// that park on a channel between runs instead of being respawned per call.
//
// Schedule. A run splits its index space (a program's tiles, or a fused
// wavefront's rows) into chunks of tv.C consecutive items and the chunks
// into n = min(workers, chunks) contiguous slabs, one per participant. A
// participant claims chunks from the front of its own slab, then steals
// chunks from the backs of the other slabs once its own is empty. Items that
// run at the same time are therefore a slab apart — x-adjacent tiles that
// share output cache lines run on one core — and c stays the claim size.
//
// Joining. The calling goroutine is participant 0. It opens the run, sends
// up to n-1 non-blocking wakes, drains, closes the run and then waits only
// for workers still inside a chunk: a worker that was slow to wake never
// holds a run up. A woken worker joins only while the run is open; one that
// wakes after the close (or from a stale wake token) goes back to sleep
// without reading the job.
//
// Memory ordering. state packs a run generation, an open bit and the count
// of joined workers still draining. The caller writes the job and the slabs,
// then opens the run with one atomic add; a worker joins by a
// compare-and-swap that increments the count only while the state it loaded
// (this run's generation, open) is still current, so everything it reads of
// the job happens after the caller wrote it. The caller's close is an atomic
// and that clears the open bit and returns the count: zero means no worker
// is inside the run, and otherwise the worker whose decrement takes the
// closed count to zero sends the one done token the caller waits for. Every
// joined worker's reads thus happen before the next run's writes, so plain
// (non-atomic) access to the job is race-free; only the state, the slot
// counter and the slab bounds need atomics. A worker that finds the run
// closed has read nothing but the state.
type workerPool[T grid.Float] struct {
	workers int
	wake    chan struct{}
	done    chan struct{}
	quit    chan struct{}
	wg      sync.WaitGroup
	stats   *poolCounters
	// beforeJoin, when set, runs in a woken worker before it tries to
	// join; a copy of beforeJoinHook taken when the pool starts.
	beforeJoin func()

	state atomic.Uint64
	slot  atomic.Int64 // slots handed to joiners this run
	slabs []slab

	job struct {
		prog            *Program[T]
		fused           *FusedProgram[T]
		out             *grid.Grid[T]
		n, chunk, total int
	}
}

// state layout: joined workers still draining in the low 32 bits, then the
// open bit, then the run generation.
const (
	joinerMask = 1<<32 - 1
	openBit    = 1 << 32
	genUnit    = 1 << 33
)

// beforeJoinHook is a test hook: pools started while it is set call it in
// every woken worker before the worker joins a run.
var beforeJoinHook func()

// slab is one participant's share of a run: the chunks lo..hi-1, packed as
// lo | hi<<32 so that one compare-and-swap claims a chunk from either end.
// The owner claims from the front, thieves from the back, so an owner and a
// thief work on adjacent chunks only where they meet. Chunk indices fit in
// 32 bits: 2^32 chunks would need a tile list of hundreds of GiB. The
// padding keeps every slab on its own cache line.
type slab struct {
	bounds atomic.Uint64
	_      [56]byte
}

// claim takes the slab's first chunk, or its last when steal is set; ok is
// false once the slab is empty.
func (s *slab) claim(steal bool) (c int, ok bool) {
	for {
		b := s.bounds.Load()
		lo, hi := uint32(b), uint32(b>>32)
		if lo >= hi {
			return 0, false
		}
		c, next := lo, b+1
		if steal {
			c, next = hi-1, b-1<<32
		}
		if s.bounds.CompareAndSwap(b, next) {
			return int(c), true
		}
	}
}

// newWorkerPool starts workers-1 goroutines: the goroutine calling run is
// always participant 0, so total parallelism is workers.
func newWorkerPool[T grid.Float](workers int, stats *poolCounters) *workerPool[T] {
	p := &workerPool[T]{
		workers:    workers,
		wake:       make(chan struct{}, workers),
		done:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
		stats:      stats,
		beforeJoin: beforeJoinHook,
		slabs:      make([]slab, workers),
	}
	p.wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go p.worker()
	}
	return p
}

// stop terminates the workers and waits for them to exit. The pool must be
// idle (no run in flight); the Runner guarantees this by serializing runs
// and Close under its mutex.
func (p *workerPool[T]) stop() {
	close(p.quit)
	p.wg.Wait()
}

// run executes one program over the given output grid, blocking until every
// tile has been processed. Only one run may be in flight at a time.
func (p *workerPool[T]) run(prog *Program[T], out *grid.Grid[T]) {
	p.job.prog = prog
	p.job.out = out
	p.dispatch(len(prog.tiles), prog.tv.C)
}

// runFused executes one wavefront iteration of a fused program: the active
// plane tasks' rows form a flat index space scheduled exactly like tiles.
func (p *workerPool[T]) runFused(fp *FusedProgram[T]) {
	p.job.fused = fp
	p.dispatch(fp.active*fp.rows, fp.chunk)
	p.job.fused = nil
}

// dispatch runs the index space [0, total) of the published job in chunks
// of chunk items, one slab per participant (see workerPool). A run with a
// single slab involves no wake and no join.
func (p *workerPool[T]) dispatch(total, chunk int) {
	chunks := ceilDiv(total, chunk)
	n := min(p.workers, chunks)
	for i := range n {
		lo, hi := uint64(i*chunks/n), uint64((i+1)*chunks/n)
		p.slabs[i].bounds.Store(lo | hi<<32)
	}
	p.job.n, p.job.chunk, p.job.total = n, chunk, total
	p.stats.runs.Add(1)
	if n == 1 {
		p.drain(0)
		return
	}
	p.slot.Store(0)
	p.state.Add(genUnit + openBit)
	for range n - 1 {
		select {
		case p.wake <- struct{}{}:
		default: // a stale token still queued will wake a worker
		}
	}
	p.drain(0)
	if old := p.state.And(^uint64(openBit)); old&joinerMask != 0 {
		<-p.done
	}
}

func (p *workerPool[T]) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case <-p.wake:
			if p.beforeJoin != nil {
				p.beforeJoin()
			}
			if !p.join() {
				continue
			}
			slot := int(p.slot.Add(1))
			if slot == 1 {
				p.stats.joinedRuns.Add(1)
			}
			p.drain(slot)
			p.leave()
		}
	}
}

// join enters the open run, if any; it reports false when no run is open.
func (p *workerPool[T]) join() bool {
	for {
		s := p.state.Load()
		if s&openBit == 0 {
			return false
		}
		if p.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// leave exits the run; the last worker out of a closed run signals the
// caller waiting in dispatch.
func (p *workerPool[T]) leave() {
	if s := p.state.Add(^uint64(0)); s&(openBit|joinerMask) == 0 {
		p.done <- struct{}{}
	}
}

// drain claims and executes chunks, first from the front of the
// participant's own slab, then, once that is empty, from the backs of the
// others' in slot order. Slots past the slab count (more joiners than slabs)
// only steal.
func (p *workerPool[T]) drain(slot int) {
	n := p.job.n
	steals := uint64(0)
	for i := range n {
		s := &p.slabs[(slot+i)%n]
		steal := i > 0 || slot >= n
		for {
			c, ok := s.claim(steal)
			if !ok {
				break
			}
			start := c * p.job.chunk
			p.runChunk(start, min(start+p.job.chunk, p.job.total))
			if steal {
				steals++
			}
		}
	}
	if steals > 0 {
		p.stats.steals.Add(steals)
	}
}

// runChunk executes items start..end of the job. A fused job runs rows; a
// program runs tiles through its precompiled row spans — a linear walk of
// (base, n) pairs with no per-row index arithmetic — or, for grids too large
// for the int32 span plan, computes row bases on the fly.
func (p *workerPool[T]) runChunk(start, end int) {
	if fp := p.job.fused; fp != nil {
		fp.runRows(start, end)
		return
	}
	prog := p.job.prog
	out := p.job.out
	src := prog.p.data[0] // a fast path's only input: detectFast wants one buffer
	if prog.spans == nil {
		for _, t := range prog.tiles[start:end] {
			if prog.fp != nil {
				runTileFast(prog.fp, out, src, t, prog.tv.U)
			} else {
				runTile(&prog.p, out, t, prog.fuse, prog.avx2)
			}
		}
		return
	}
	spans := prog.spans[2*int(prog.spanStart[start]) : 2*int(prog.spanStart[end])]
	if prog.fp != nil {
		runSpansFast(prog.fp, out.Data(), src, spans, prog.tv.U)
	} else {
		runSpans(&prog.p, out.Data(), spans, prog.fuse, prog.avx2)
	}
}

// PoolStats counts a Runner's pool runs since it was created: Runs is every
// dispatch (one per Program.Run, one per wavefront iteration of a fused
// run), JoinedRuns the runs at least one woken worker joined, and Steals
// the chunks a participant claimed from another participant's slab. Close
// stops the pool but keeps the counts.
type PoolStats struct {
	Runs, JoinedRuns, Steals uint64
}

// poolCounters holds PoolStats in atomics; the Runner owns them so they
// outlive a pool restart.
type poolCounters struct {
	runs, joinedRuns, steals atomic.Uint64
}

func (c *poolCounters) load() PoolStats {
	return PoolStats{Runs: c.runs.Load(), JoinedRuns: c.joinedRuns.Load(), Steals: c.steals.Load()}
}

// plus returns the element-wise sum of two counts.
func (s PoolStats) plus(o PoolStats) PoolStats {
	return PoolStats{Runs: s.Runs + o.Runs, JoinedRuns: s.JoinedRuns + o.JoinedRuns, Steals: s.Steals + o.Steals}
}

// PoolStats reports the pool counts. It never blocks on a run in flight.
func (r *Runner[T]) PoolStats() PoolStats { return r.poolStats.load() }
