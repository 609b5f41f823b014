package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/tunespace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// obsSink ships observations to the durable WAL off the request path. The
// request side only ever does a non-blocking channel send: when the buffer is
// full the record is shed and counted (wal_dropped), never queued against the
// client's latency. One background goroutine drains the buffer in batches —
// every record of a batch is appended, then a single Sync makes the batch
// durable and its cost lands in the wal_fsync_seconds histogram, so the
// fsync price is amortized across whatever accumulated while the previous
// fsync ran.
type obsSink struct {
	log  *wal.Log
	m    *serverMetrics
	ch   chan wal.Record
	done chan struct{}
	once sync.Once
}

func newObsSink(l *wal.Log, m *serverMetrics, depth int) *obsSink {
	if depth <= 0 {
		depth = 1024
	}
	o := &obsSink{
		log:  l,
		m:    m,
		ch:   make(chan wal.Record, depth),
		done: make(chan struct{}),
	}
	go o.run()
	return o
}

// offer enqueues a record without ever blocking: a full buffer sheds.
func (o *obsSink) offer(r wal.Record) bool {
	select {
	case o.ch <- r:
		return true
	default:
		o.m.walDropped.Inc()
		return false
	}
}

func (o *obsSink) run() {
	defer close(o.done)
	for {
		r, ok := <-o.ch
		if !ok {
			return
		}
		batch := []wal.Record{r}
	drain:
		for {
			select {
			case r2, ok := <-o.ch:
				if !ok {
					o.write(batch)
					return
				}
				batch = append(batch, r2)
			default:
				break drain
			}
		}
		o.write(batch)
	}
}

func (o *obsSink) write(batch []wal.Record) {
	appended := 0
	for _, r := range batch {
		if err := o.log.Append(r); err != nil {
			o.m.walDropped.Inc()
			continue
		}
		appended++
	}
	if appended == 0 {
		return
	}
	start := time.Now()
	if err := o.log.Sync(); err != nil {
		o.m.walSyncErrors.Inc()
	}
	o.m.walFsync.Observe(time.Since(start).Seconds())
	o.m.walAppended.Add(float64(appended))
}

// close flushes whatever is buffered and stops the writer goroutine. It does
// not close the underlying WAL — the sink borrows it, the caller owns it.
func (o *obsSink) close() {
	o.once.Do(func() { close(o.ch) })
	<-o.done
}

// observation builds the WAL record of one evaluated vector of the
// request's instance.
func (res resolved) observation(v tunespace.Vector, runtimeSeconds float64, source, machine string, nowNano int64) wal.Record {
	rec := wal.NewRecord(res.q, v, runtimeSeconds)
	rec.Fingerprint = res.fp
	rec.Machine = machine
	rec.Source = source
	rec.UnixNano = nowNano
	return rec
}

// record offers a measured observation to the sink; structurally invalid or
// non-finite measurements are rejected before they can pollute training.
func (s *Server) record(rec wal.Record) {
	if s.sink == nil || rec.Validate() != nil {
		return
	}
	s.sink.offer(rec)
}

// ---------------------------------------------------------------------------
// /v1/observe

// maxObservations bounds one report; bulk uploads should batch requests.
const maxObservations = 1024

// handleObserve takes real runtimes measured on a client's own machine
// (wire.ObserveRequest). Observations feed the retrain loop; they are
// validated strictly and never affect any answer of the current model.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if s.sink == nil {
		s.fail(w, http.StatusServiceUnavailable,
			fmt.Errorf("observation log not enabled on this server (start with -wal)"))
		return
	}
	var req wire.ObserveRequest
	res, ok := s.resolve(w, r, &req, &req.Instance)
	if !ok {
		return
	}
	if len(req.Observations) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("missing observations"))
		return
	}
	if len(req.Observations) > maxObservations {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("%d observations exceed the per-request limit of %d", len(req.Observations), maxObservations))
		return
	}
	machineID := req.Machine
	if machineID == "" {
		machineID = s.machine
	}
	now := time.Now().UnixNano()
	// Validate everything before accepting anything, so a 400 never
	// half-ingests a report.
	records := make([]wal.Record, 0, len(req.Observations))
	for i, o := range req.Observations {
		rec := res.observation(o.Vector.Tuning(res.q.Kernel.Dims()), o.RuntimeSeconds, "observe", machineID, now)
		if err := rec.Validate(); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("observation %d: %v", i, err))
			return
		}
		records = append(records, rec)
	}
	resp := wire.ObserveResponse{}
	for _, rec := range records {
		if s.sink.offer(rec) {
			resp.Accepted++
		} else {
			resp.Dropped++
		}
	}
	s.m.observations.Add(float64(resp.Accepted))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(resp)
}
