package main

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/server"
)

func bodies(workload string, seed int64, caller, n int) [][]byte {
	var cat []request
	if workload == "hot" {
		cat = hotCatalog(seed)
	}
	seq := newSequence(workload, seed, caller, cat)
	out := make([][]byte, n)
	for i := range out {
		out[i] = seq.next().Body
	}
	return out
}

func TestSameSeedSameRequestBytes(t *testing.T) {
	for _, w := range []string{"hot", "cold", "measure"} {
		for caller := 0; caller < 2; caller++ {
			a, b := bodies(w, 7, caller, 500), bodies(w, 7, caller, 500)
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("%s caller %d request %d differs between two runs of seed 7:\n%s\n%s", w, caller, i, a[i], b[i])
				}
			}
		}
		if a, b := bodies(w, 7, 0, 50), bodies(w, 8, 0, 50); bytes.Equal(bytes.Join(a, nil), bytes.Join(b, nil)) {
			t.Errorf("%s: seeds 7 and 8 give the same requests", w)
		}
	}
}

func TestHotCallersDrawDifferentStreams(t *testing.T) {
	a, b := bodies("hot", 3, 0, 100), bodies("hot", 3, 1, 100)
	if bytes.Equal(bytes.Join(a, nil), bytes.Join(b, nil)) {
		t.Fatal("both hot callers send the same request stream")
	}
}

// The server caches on its routing key's structure, so distinct routing
// keys guarantee every cold and measure request misses the cache.
func TestColdAndMeasureKeysNeverRepeat(t *testing.T) {
	for w, n := range map[string]int{"cold": 3000, "measure": 1500} {
		seen := map[string]int{}
		for i, body := range bodies(w, 11, 0, n) {
			key, ok := server.RoutingKey(body)
			if !ok {
				t.Fatalf("%s request %d does not parse as a tune request: %s", w, i, body)
			}
			if j, dup := seen[key]; dup {
				t.Fatalf("%s requests %d and %d share the cache key %s", w, j, i, key)
			}
			seen[key] = i
		}
	}
}

// A measure kernel whose offsets all lie in one plane is 2-D, and the
// executor cannot run it on the workload's cubes.
func TestMeasureKernelsAre3D(t *testing.T) {
	seq := newMeasureSeq(9)
	for i := 0; i < 2000; i++ {
		if r := seq.next(); r.Inst.Kernel.Dims() != 3 {
			t.Fatalf("measure request %d has a %d-D kernel: %s", i, r.Inst.Kernel.Dims(), r.Body)
		}
	}
}

func TestHotCatalogDistinctAndParses(t *testing.T) {
	cat := hotCatalog(5)
	if len(cat) != hotCatalogSize {
		t.Fatalf("catalog has %d keys, want %d", len(cat), hotCatalogSize)
	}
	seen := map[string]bool{}
	for _, r := range cat {
		key, ok := server.RoutingKey(r.Body)
		if !ok || seen[key] {
			t.Fatalf("catalog entry %s: parsed=%v duplicate=%v", r.Key, ok, seen[key])
		}
		seen[key] = true
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{1000, 0.99, 990, true}, // 10 samples beyond rank 990
		{999, 0.99, 990, false}, // only 9 beyond
		{100, 0.90, 90, true},   // 10 beyond
		{99, 0.90, 90, false},   // 9 beyond
		{21, 0.50, 11, true},    // 10 beyond the median
		{20, 0.50, 10, true},    // 10 beyond
		{19, 0.50, 10, false},   // 9 beyond
		{10000, 0.999, 9990, true},
	}
	for _, c := range cases {
		got, ok := percentile(ramp(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(n=%d, p=%g) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

// Two instances checked by hand. The first: the model's order matches the
// runtimes (τ = 1), its pick takes twice the oracle (top-1 = 0.5) and half
// the GA's runtime (speedup 2). The second: the order is reversed (τ = -1),
// the pick is the oracle and ties the GA. Means: τ 0, top-1 0.75, geometric
// mean speedup √2.
func TestQualitySummaryHandChecked(t *testing.T) {
	rows := []qualityRow{
		{pick: 2, oracle: 1, ga: 4, runtimes: []float64{1, 2, 3}, scores: []float64{3, 2, 1}},
		{pick: 1, oracle: 1, ga: 1, runtimes: []float64{1, 2}, scores: []float64{1, 2}},
	}
	q := summarize(rows)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if !near(q.tau, 0) || !near(q.top1, 0.75) || !near(q.speedupGA, math.Sqrt2) {
		t.Fatalf("summarize = %+v, want tau 0, top1 0.75, speedup %v", q, math.Sqrt2)
	}
}

// A root [0,100) with children [10,30) and [20,50) (overlapping) and a
// grandchild [12,14): the root's children cover 40, so its self time is 60
// and the closure 0.4; the first child's self time is 18.
func TestSelfTimeAndClosure(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100_000},
		{ID: 1, Parent: 0, Name: "a", Start: 10_000, End: 30_000},
		{ID: 2, Parent: 0, Name: "b", Start: 20_000, End: 50_000},
		{ID: 3, Parent: 1, Name: "c", Start: 12_000, End: 14_000},
	}
	self := map[string]float64{}
	for _, l := range layerStats(spans) {
		self[l.Name] = l.Self
	}
	if self["root"] != 60 || self["a"] != 18 || self["b"] != 30 || self["c"] != 2 {
		t.Fatalf("self times (us) = %v", self)
	}
	if got := closure(spans, "root"); got != 0.4 {
		t.Fatalf("closure = %v, want 0.4", got)
	}
}

// The server's stage spans nest as the pipeline runs them: queue_wait and
// measure inside inference, inference after the cache lookup.
func TestAddStagesLayout(t *testing.T) {
	tr := newTracer()
	h := tr.add(spanHandle, -1, 1, 1_000, 100_000)
	line := []byte(`{"spans":[{"stage":"cache_lookup","us":2},{"stage":"queue_wait","us":5},{"stage":"measure","us":40},{"stage":"inference","us":90}]}`)
	if err := tr.addStages(line, h, 1); err != nil {
		t.Fatal(err)
	}
	got := map[string]span{}
	for _, s := range tr.spans[1:] {
		got[s.Name] = s
	}
	inf := got["server.stage.inference"]
	if inf.Parent != h || got["server.stage.cache_lookup"].Parent != h {
		t.Fatalf("inference and cache_lookup must hang off the handler: %+v", got)
	}
	if inf.Start != 3_000 || inf.End != 93_000 {
		t.Fatalf("inference = [%d,%d), want [3000,93000)", inf.Start, inf.End)
	}
	qw, m := got["server.stage.queue_wait"], got["server.stage.measure"]
	if qw.Parent != inf.ID || m.Parent != inf.ID || qw.Start != inf.Start || m.Start != qw.End {
		t.Fatalf("queue_wait %+v and measure %+v must run in order inside inference %+v", qw, m, inf)
	}
}
