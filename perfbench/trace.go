package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/feature"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tunespace"
)

// span is one timed call. Times are nanoseconds since the tracer started;
// Parent is -1 for a root, and Req groups the spans of one request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Req: req, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil && id >= 0 {
		t.spans[id].End = t.now()
	}
}

// add records a finished span with known bounds.
func (t *tracer) add(name string, parent int, req int64, start, end int64) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Req: req, Start: start, End: end})
	return len(t.spans) - 1
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat is one span name's totals. Self time is the span's duration
// minus the part of it that its child spans cover.
type layerStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Mean  float64 `json:"mean_us"`
	Self  float64 `json:"self_mean_us"`
}

// children indexes each span's children.
func children(spans []span) [][]int {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	return kids
}

// covered returns how much of span i's interval its children cover,
// counting overlapping children once.
func covered(spans []span, kids [][]int, i int) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	p := spans[i]
	for _, k := range kids[i] {
		a, b := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// layerStats summarizes every span name, sorted by name.
func layerStats(spans []span) []layerStat {
	kids := children(spans)
	byName := map[string]*layerStat{}
	for i, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e3
		st.Count++
		st.Mean += d
		st.Self += d - float64(covered(spans, kids, i))/1e3
	}
	out := make([]layerStat, 0, len(byName))
	for _, st := range byName {
		st.Mean /= float64(st.Count)
		st.Self /= float64(st.Count)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// closure is the share of the named spans' total time that their children
// cover.
func closure(spans []span, name string) float64 {
	kids := children(spans)
	var dur, cov int64
	for i, s := range spans {
		if s.Name == name {
			dur += s.End - s.Start
			cov += covered(spans, kids, i)
		}
	}
	if dur == 0 {
		return 0
	}
	return float64(cov) / float64(dur)
}

// meanOf returns the mean duration of the named spans in the given unit.
func meanOf(spans []span, name string, unit time.Duration) float64 {
	var total int64
	n := 0
	for _, s := range spans {
		if s.Name == name {
			total += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / float64(unit)
}

// Span names of the calls the traced run wraps.
const (
	spanHandle       = "server.Handler.ServeHTTP"
	spanRouteKey     = "server.RoutingKey"
	spanPredefined   = "tunespace.Space.Predefined"
	spanEncode       = "feature.Encoder.Encode"
	spanScore        = "svmrank.Model.ArgBestBatch"
	spanBest         = "core.Tuner.Best"
	spanTopOfRanking = "core.Tuner.TopOfRanking"
	spanMeasureC     = "exec.Measurer.MeasureBatch/first"
	spanMeasureW     = "exec.Measurer.MeasureBatch/repeat"
	spanWorkspace    = "exec.Measurer.WorkspaceBytes"
)

// stageParent names the stage each nested server stage runs inside; the
// other stages run directly under the handler.
var stageParent = map[string]string{"queue_wait": "inference", "measure": "inference"}

// accessLine is the part of a server access-log line the tracer reads.
type accessLine struct {
	Spans []struct {
		Stage string `json:"stage"`
		Us    int64  `json:"us"`
	} `json:"spans"`
}

// addStages turns the server's stage spans of one request into spans under
// the handler span. The access log carries durations only, in the order the
// stages finished, so the spans are laid out in pipeline order: the stages
// directly under the handler from its start, and the nested ones from their
// parent's start.
func (t *tracer) addStages(line []byte, handle int, req int64) error {
	var al accessLine
	if err := json.Unmarshal(line, &al); err != nil {
		return fmt.Errorf("decoding access log line: %w", err)
	}
	next := map[int]int64{handle: t.spans[handle].Start} // where each span's next child starts
	ids := map[string]int{}
	place := func(stage string, parent int, us int64) {
		end := t.spans[parent].End
		start := min(next[parent], end)
		id := t.add("server.stage."+stage, parent, req, start, min(start+us*1e3, end))
		next[parent] = t.spans[id].End
		next[id] = start
		ids[stage] = id
	}
	for _, s := range al.Spans {
		if _, nested := stageParent[s.Stage]; !nested {
			place(s.Stage, handle, s.Us)
		}
	}
	for _, s := range al.Spans {
		if p, nested := stageParent[s.Stage]; nested {
			parent, ok := ids[p]
			if !ok {
				parent = handle
			}
			place(s.Stage, parent, s.Us)
		}
	}
	return nil
}

// inProcess serves one request through a handler.
func inProcess(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tune", bytes.NewReader(body)))
	return rec
}

// replaySide is one of the traced run's two request paths: a server, its
// reply check, and a tracer on the traced side only.
type replaySide struct {
	h      http.Handler
	check  checkFunc
	tr     *tracer
	logBuf *bytes.Buffer
	callerResult
	busy time.Duration
}

// serve sends one request through the side, calling server.RoutingKey on the
// body first, as a balancer would. A traced side records a request span with
// the routing-key and handler spans under it, and the server's own stage
// spans from its access log under the handler span.
func (s *replaySide) serve(r request, reqID int64) error {
	start := time.Now()
	tr := s.tr
	root := tr.begin("request", -1, reqID)
	sp := tr.begin(spanRouteKey, root, reqID)
	_, routable := server.RoutingKey(r.Body)
	tr.end(sp)
	if s.logBuf != nil {
		s.logBuf.Reset()
	}
	handle := tr.begin(spanHandle, root, reqID)
	rec := inProcess(s.h, r.Body)
	tr.end(handle)
	if tr != nil {
		if err := tr.addStages(bytes.TrimSpace(s.logBuf.Bytes()), handle, reqID); err != nil {
			return err
		}
	}
	tr.end(root)
	reason := "server.RoutingKey rejected the body"
	if routable {
		reason = s.check(r, rec.Code, rec.Body.Bytes(), &s.callerResult)
	}
	if reason == "" {
		s.ok++
	} else {
		s.failed++
		if s.firstErr == "" {
			s.firstErr = r.Key + ": " + reason
		}
	}
	s.busy += time.Since(start)
	return nil
}

// rate is the side's requests per second of its own busy time.
func (s *replaySide) rate() float64 {
	if s.busy == 0 {
		return 0
	}
	return float64(s.ok+s.failed) / s.busy.Seconds()
}

// replay sends each of the sequence's requests through both sides, the
// untraced one first on even requests and the traced one first on odd ones,
// until dur elapses. Both sides do identical work on identical inputs, so
// their rates differ only by the tracing.
func replay(untraced, traced *replaySide, seq sequence, dur time.Duration, reqID *int64) error {
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		r := seq.next()
		first, second := untraced, traced
		if i%2 == 1 {
			first, second = traced, untraced
		}
		*reqID++
		if err := first.serve(r, *reqID); err != nil {
			return err
		}
		if err := second.serve(r, *reqID); err != nil {
			return err
		}
	}
	return nil
}

// Replay sizes of the traced run's fixed-count phases.
const (
	replayInstances = 16 // distinct instances replayed through the model and executor layers
	allocOpsHot     = 2000
	allocOpsMiss    = 8
)

// runTraced is the per-layer run. It sets up in-process with spans around
// each set-up layer, replays the workload's sequence through both an
// untraced and a traced server for four fifths of --seconds, measures
// allocations per request, and replays the first distinct instances through
// the model and executor layers one call at a time.
func runTraced(o options) (result, map[string]any, error) {
	tr := newTracer()
	setupRoot := tr.begin("setup", -1, 0)
	t, err := trainModel(modelSeed, tr, setupRoot)
	if err != nil {
		return result{}, nil, err
	}
	dir := filepath.Join(o.work, "store")
	sp := tr.begin("store.Save", setupRoot, 0)
	err = saveModel(dir, t)
	tr.end(sp)
	if err != nil {
		return result{}, nil, err
	}
	sp = tr.begin("store.Load", setupRoot, 0)
	st, err := store.Open(dir)
	var art *store.Artifact
	if err == nil {
		art, err = st.Load("default")
	}
	tr.end(sp)
	if err != nil {
		return result{}, nil, fmt.Errorf("loading the saved model: %w", err)
	}
	if !slices.Equal(art.Model.W, t.model.W) {
		return result{}, nil, fmt.Errorf("store round trip changed the model weights")
	}
	sp = tr.begin("server.New", setupRoot, 0)
	plain, err := server.New(server.Config{ModelDir: dir})
	tr.end(sp)
	tr.end(setupRoot)
	if err != nil {
		return result{}, nil, err
	}
	defer plain.Close()
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	traced, err := server.New(server.Config{ModelDir: dir, Registry: reg, AccessLog: obs.NewLogger(&logBuf, "json")})
	if err != nil {
		return result{}, nil, err
	}
	defer traced.Close()
	hPlain, hTraced := plain.Handler(), traced.Handler()
	tuner := core.New(t.model)

	var (
		cat    []request
		primed []served // hot: the catalog's primed picks
	)
	primedPlain, primedTraced := map[string][]byte{}, map[string][]byte{}
	failed, firstErr := 0, ""
	if o.workload == "hot" {
		cat = hotCatalog(o.seed)
		for _, r := range cat {
			recP, recT := inProcess(hPlain, r.Body), inProcess(hTraced, r.Body)
			if recP.Code != http.StatusOK || recT.Code != http.StatusOK {
				return result{}, nil, fmt.Errorf("priming %s: HTTP %d/%d: %s", r.Key, recP.Code, recT.Code, recP.Body.Bytes())
			}
			var resp tuneResponse
			if err := json.Unmarshal(recP.Body.Bytes(), &resp); err != nil {
				return result{}, nil, err
			}
			primedPlain[r.Key], primedTraced[r.Key] = recP.Body.Bytes(), recT.Body.Bytes()
			primed = append(primed, served{req: r, best: resp.Best})
		}
		if failed, firstErr, err = verifyServed(tuner, primed); err != nil {
			return result{}, nil, err
		}
		logBuf.Reset()
	}
	untraced := &replaySide{h: hPlain, check: checkFor(o.workload, primedPlain)}
	tracedSide := &replaySide{h: hTraced, check: checkFor(o.workload, primedTraced), tr: tr, logBuf: &logBuf}
	seq := newSequence(o.workload, o.seed, 0, cat)
	var reqID int64

	hits0, misses0 := reg.Value("stencilserve_cache_hits_total"), reg.Value("stencilserve_cache_misses_total")
	inf0 := reg.Value("stencilserve_inferences_total")
	qw0, qwn0 := reg.Value("stencilserve_stage_duration_seconds", "queue_wait"), reg.HistogramCount("stencilserve_stage_duration_seconds", "queue_wait")
	if err := replay(untraced, tracedSide, seq, time.Duration(o.seconds)*time.Second*4/5, &reqID); err != nil {
		return result{}, nil, err
	}
	hits := reg.Value("stencilserve_cache_hits_total") - hits0
	misses := reg.Value("stencilserve_cache_misses_total") - misses0
	infs := reg.Value("stencilserve_inferences_total") - inf0
	qw := reg.Value("stencilserve_stage_duration_seconds", "queue_wait") - qw0
	qwn := reg.HistogramCount("stencilserve_stage_duration_seconds", "queue_wait") - qwn0

	// Allocations per request, on prepared requests so that only the
	// handler's own allocations fall between the two readings.
	allocOps := allocOpsMiss
	if o.workload == "hot" {
		allocOps = allocOpsHot
	}
	reqs := make([]*http.Request, allocOps)
	recs := make([]*httptest.ResponseRecorder, allocOps)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/tune", bytes.NewReader(seq.next().Body))
		recs[i] = httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		hPlain.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&m1)
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			failed++
		}
	}

	ops := tracedSide.ok + tracedSide.failed
	candidates, replayed := 0, 0
	for _, side := range []*replaySide{untraced, tracedSide} {
		for _, s := range side.served {
			candidates += s.ranked
		}
		replayed += side.ok + side.failed
	}
	// Hot requests never reach the model, so its layers are replayed on the
	// catalog instances, whose misses priming paid for.
	layerInput := tracedSide.served
	if o.workload == "hot" {
		layerInput = primed
	}
	lay, err := replayLayers(tr, tuner, layerInput, o.workload == "measure", &reqID)
	if err != nil {
		return result{}, nil, err
	}
	failed += untraced.failed + tracedSide.failed + lay.mismatches
	for _, e := range []string{untraced.firstErr, tracedSide.firstErr, lay.firstErr} {
		if firstErr == "" {
			firstErr = e
		}
	}
	attempted := replayed + allocOps

	spans := tr.spans
	setupSpan := func(name string, unit time.Duration) float64 { return meanOf(spans, name, unit) }
	untracedRate, tracedRate := untraced.rate(), tracedSide.rate()
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	metrics := map[string]metric{
		"server.handle_us":         {meanOf(spans, spanHandle, time.Microsecond), "us"},
		"server.route_key_us":      {meanOf(spans, spanRouteKey, time.Microsecond), "us"},
		"server.allocs_per_op":     {float64(m1.Mallocs-m0.Mallocs) / float64(allocOps), "count"},
		"server.alloc_kb_per_op":   {float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(allocOps), "KiB"},
		"server.cache_hit_frac":    {frac(hits, hits+misses), "ratio"},
		"server.inferences_per_op": {frac(infs, float64(ops)), "count"},
		"server.queue_wait_ms":     {frac(qw*1e3, float64(qwn)), "ms"},
		"tunespace.predefined_us":  {meanOf(spans, spanPredefined, time.Microsecond), "us"},
		"feature.encode_ms":        {meanOf(spans, spanEncode, time.Millisecond), "ms"},
		"svmrank.score_ms":         {meanOf(spans, spanScore, time.Millisecond), "ms"},
		"core.best_ms":             {meanOf(spans, spanBest, time.Millisecond), "ms"},
		"core.candidates_per_op":   {frac(float64(candidates), float64(replayed)), "count"},
		"core.allocs_per_op":       {lay.bestAllocs, "count"},
		"exec.measure_cold_ms":     {meanOf(spans, spanMeasureC, time.Millisecond), "ms"},
		"exec.measure_warm_ms":     {meanOf(spans, spanMeasureW, time.Millisecond), "ms"},
		"exec.gpts_per_s":          {lay.gpts, "Gpt/s"},
		"exec.workspace_mb":        {lay.workspaceMB, "MiB"},
		"exec.allocs_per_op":       {lay.measureAllocs, "count"},
		"dataset.generate_s":       {setupSpan("dataset.Generate", time.Second), "s"},
		"perfmodel.evals":          {float64(t.evals), "count"},
		"perfmodel.eval_ns":        {frac(float64(t.evalNs), float64(t.evals)), "ns"},
		"svmrank.train_s":          {setupSpan("svmrank.Train", time.Second), "s"},
		"svmrank.pairs":            {float64(t.pairs), "count"},
		"store.save_ms":            {setupSpan("store.Save", time.Millisecond), "ms"},
		"store.load_ms":            {setupSpan("store.Load", time.Millisecond), "ms"},
		"server.new_ms":            {setupSpan("server.New", time.Millisecond), "ms"},
		"trace.closure_frac":       {closure(spans, spanHandle), "ratio"},
		"trace.overhead_frac":      {1 - frac(tracedRate, untracedRate), "ratio"},
	}
	if err := tr.write(filepath.Join(o.work, "spans.jsonl")); err != nil {
		return result{}, nil, err
	}
	report := map[string]any{
		"untraced_ops_per_s": untracedRate,
		"traced_ops_per_s":   tracedRate,
		"spans":              len(spans),
		"layers":             layerStats(spans),
	}
	if firstErr != "" {
		report["first_error"] = firstErr
	}
	printLayers(report["layers"].([]layerStat))
	fmt.Printf("report %s\n", mustJSON(map[string]any{
		"untraced_ops_per_s": untracedRate, "traced_ops_per_s": tracedRate, "spans": len(spans), "first_error": firstErr,
	}))
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, report, nil
}

// layerReplay is what replaying distinct instances through the model and
// executor layers measured.
type layerReplay struct {
	mismatches                int
	firstErr                  string
	bestAllocs, measureAllocs float64
	gpts, workspaceMB         float64
}

// replayLayers calls each model layer's public function on the first
// replayInstances served instances, one span per call, and checks the
// layer-by-layer pick against core.Tuner.Best and the served pick. With
// measure it also runs exec.Measurer.MeasureBatch twice per kernel on the
// model's top candidates: the first call compiles and runs, the repeat
// reuses the compiled kernel and workspace.
func replayLayers(tr *tracer, tuner *core.Tuner, sv []served, measure bool, reqID *int64) (layerReplay, error) {
	var out layerReplay
	var m *exec.Measurer
	if measure {
		m = exec.NewMeasurer()
		defer m.Close()
	}
	n := min(len(sv), replayInstances)
	var bestAllocs, measureAllocs uint64
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	for _, s := range sv[:n] {
		q := s.req.Inst
		*reqID++
		root := tr.begin("replay", -1, *reqID)
		sp := tr.begin(spanPredefined, root, *reqID)
		cands := tunespace.NewSpace(q.Kernel.Dims()).Predefined()
		tr.end(sp)
		sp = tr.begin(spanEncode, root, *reqID)
		xs := make([]feature.Vector, len(cands))
		for i, c := range cands {
			xs[i] = tuner.Encoder.Encode(q, c)
		}
		tr.end(sp)
		sp = tr.begin(spanScore, root, *reqID)
		idx := tuner.Model.ArgBestBatch(xs)
		tr.end(sp)
		a0 := mallocs()
		sp = tr.begin(spanBest, root, *reqID)
		best, err := tuner.Best(q, cands)
		tr.end(sp)
		bestAllocs += mallocs() - a0
		if err != nil {
			return out, err
		}
		if best != cands[idx] || !s.best.equals(best) {
			out.mismatches++
			if out.firstErr == "" {
				out.firstErr = fmt.Sprintf("%s: layer replay pick %v, core.Tuner.Best %v, served %+v", s.req.Key, cands[idx], best, s.best)
			}
		}
		if measure {
			sp = tr.begin(spanTopOfRanking, root, *reqID)
			top, err := tuner.TopOfRanking(q, cands)
			tr.end(sp)
			if err != nil {
				return out, err
			}
			top = top[:measureTopK]
			sp = tr.begin(spanMeasureC, root, *reqID)
			_, err = m.MeasureBatch(q, top)
			tr.end(sp)
			if err != nil {
				return out, fmt.Errorf("measuring %s: %w", s.req.Key, err)
			}
			a0 := mallocs()
			sp = tr.begin(spanMeasureW, root, *reqID)
			secs, err := m.MeasureBatch(q, top)
			tr.end(sp)
			measureAllocs += mallocs() - a0
			if err != nil {
				return out, fmt.Errorf("measuring %s: %w", s.req.Key, err)
			}
			out.gpts += float64(q.Size.Points()) / slices.Min(secs) / 1e9
		}
		tr.end(root)
	}
	if n == 0 {
		return out, nil
	}
	out.bestAllocs = float64(bestAllocs) / float64(n)
	if measure {
		out.measureAllocs = float64(measureAllocs) / float64(n)
		out.gpts /= float64(n)
		sp := tr.begin(spanWorkspace, -1, 0)
		b32, b64 := m.WorkspaceBytes()
		tr.end(sp)
		out.workspaceMB = float64(b32+b64) / (1 << 20)
	}
	return out, nil
}

// printLayers prints each span name's count, mean and self time.
func printLayers(ls []layerStat) {
	fmt.Printf("  %-40s %9s %14s %14s\n", "span", "count", "mean_us", "self_mean_us")
	for _, l := range ls {
		fmt.Printf("  %-40s %9d %14.2f %14.2f\n", l.Name, l.Count, l.Mean, l.Self)
	}
}
