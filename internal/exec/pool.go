package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/grid"
)

// workerPool is a Runner's persistent execution crew: long-lived goroutines
// that park on a channel between runs instead of being respawned per call.
// One run publishes the job (program, output grid, reset chunk counter),
// wakes up to len(tiles) workers, and waits for the same number of
// completion tokens. Workers claim chunks of tv.C consecutive tiles from the
// shared atomic counter, exactly like the original spawn-per-call scheduler.
//
// Memory ordering: job fields are written before the wake sends and read
// only by woken workers, and every completion token is received before the
// next run's writes, so plain (non-atomic) access to job.prog/job.out is
// race-free; only the chunk counter needs atomics.
type workerPool[T grid.Float] struct {
	workers int
	wake    chan struct{}
	done    chan struct{}
	quit    chan struct{}
	wg      sync.WaitGroup

	job struct {
		prog  *Program[T]
		fused *FusedProgram[T]
		out   *grid.Grid[T]
		next  int64
	}
}

// newWorkerPool starts workers-1 goroutines: the goroutine calling run is
// always the final drain participant, so total parallelism is workers.
func newWorkerPool[T grid.Float](workers int) *workerPool[T] {
	p := &workerPool[T]{
		workers: workers,
		wake:    make(chan struct{}, workers),
		done:    make(chan struct{}, workers),
		quit:    make(chan struct{}),
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
// tile has been processed. Only one run may be in flight at a time. The
// calling goroutine participates in the drain, so a single-tile job (the
// small-grid regime where dispatch overhead dominates) involves no channel
// round-trip at all.
func (p *workerPool[T]) run(prog *Program[T], out *grid.Grid[T]) {
	p.job.prog = prog
	p.job.out = out
	atomic.StoreInt64(&p.job.next, 0)
	n := p.workers
	if n > len(prog.tiles) {
		n = len(prog.tiles)
	}
	for i := 1; i < n; i++ {
		p.wake <- struct{}{}
	}
	p.drain()
	for i := 1; i < n; i++ {
		<-p.done
	}
}

// runFused executes one wavefront iteration of a fused program: the active
// plane tasks' rows form a flat index space claimed in chunks, exactly like
// tile claiming. The caller participates in the drain, so a 2-D fused sweep
// with a single active row still involves no channel round-trip.
func (p *workerPool[T]) runFused(fp *FusedProgram[T]) {
	p.job.fused = fp
	atomic.StoreInt64(&p.job.next, 0)
	n := p.workers
	if c := ceilDiv(fp.active*fp.rows, fp.chunk); n > c {
		n = c
	}
	for i := 1; i < n; i++ {
		p.wake <- struct{}{}
	}
	p.drain()
	for i := 1; i < n; i++ {
		<-p.done
	}
	p.job.fused = nil
}

func (p *workerPool[T]) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case <-p.wake:
			p.drain()
			p.done <- struct{}{}
		}
	}
}

// drain claims and executes chunks until the tile list is exhausted. Chunks
// are still claimed in units of tv.C tiles (the scheduling semantics of the
// chunk parameter), but each claimed tile range executes through the
// program's precompiled row spans: a linear walk of (base, n) pairs with no
// per-row index arithmetic. Grids too large for the int32 span plan fall
// back to computing row bases on the fly.
func (p *workerPool[T]) drain() {
	if fp := p.job.fused; fp != nil {
		fp.drainRows(&p.job.next)
		return
	}
	prog := p.job.prog
	out := p.job.out
	tiles := prog.tiles
	chunk := prog.tv.C
	dst := out.Data()
	src := prog.p.data[0] // a fast path's only input: detectFast wants one buffer
	for {
		start := int(atomic.AddInt64(&p.job.next, int64(chunk))) - chunk
		if start >= len(tiles) {
			return
		}
		end := start + chunk
		if end > len(tiles) {
			end = len(tiles)
		}
		if prog.spans == nil {
			for _, t := range tiles[start:end] {
				if prog.fp != nil {
					runTileFast(prog.fp, out, src, t, prog.tv.U)
				} else {
					runTile(&prog.p, out, t, prog.fuse, prog.avx2)
				}
			}
			continue
		}
		spans := prog.spans[2*int(prog.spanStart[start]) : 2*int(prog.spanStart[end])]
		if prog.fp != nil {
			runSpansFast(prog.fp, dst, src, spans, prog.tv.U)
		} else {
			runSpans(&prog.p, dst, spans, prog.fuse, prog.avx2)
		}
	}
}
