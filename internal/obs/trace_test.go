package obs

import (
	"context"
	"testing"
	"time"
)

func TestTraceSpans(t *testing.T) {
	var sunk []string
	tr := new(Trace)
	tr.Init(func(stage string, _ float64) { sunk = append(sunk, stage) })
	ctx := ContextWithTrace(context.Background(), tr)

	TraceFrom(ctx).Add("cache_lookup", time.Now(), 40*time.Microsecond)
	TraceFrom(ctx).Add("flight_wait", time.Now(), 250*time.Microsecond)

	if tr.Len() != 2 {
		t.Fatalf("spans = %d, want 2", tr.Len())
	}
	if len(sunk) != 2 || sunk[0] != "cache_lookup" || sunk[1] != "flight_wait" {
		t.Errorf("sink calls = %v", sunk)
	}
	want := `[{"stage":"cache_lookup","us":40},{"stage":"flight_wait","us":250}]`
	if got := string(tr.AppendJSON(nil)); got != want {
		t.Errorf("AppendJSON = %s, want %s", got, want)
	}
}

func TestSpanWithoutTraceIsNoOp(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Error("TraceFrom on bare ctx should be nil")
	}
	var nilTrace *Trace
	if nilTrace.Len() != 0 || string(nilTrace.AppendJSON(nil)) != "[]" {
		t.Error("nil trace accessors should read as empty")
	}
}

func TestTraceConcurrentAdd(t *testing.T) {
	tr := new(Trace)
	tr.Init(nil)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				tr.Add("s", time.Now(), time.Microsecond)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if got := tr.Len(); got != 400 {
		t.Errorf("spans = %d, want 400", got)
	}
}
