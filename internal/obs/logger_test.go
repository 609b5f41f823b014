package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func fixedClock() time.Time {
	return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
}

func TestLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "json")
	l.now = fixedClock
	l.With(F("component", "server")).Info("request done",
		F("status", 200), F("duration_us", int64(33)), F("path", "/v1/tune"))

	var got map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not one JSON object per line: %v\n%s", err, buf.String())
	}
	want := map[string]any{
		"ts": "2026-08-08T12:00:00Z", "level": "info", "msg": "request done",
		"component": "server", "status": float64(200),
		"duration_us": float64(33), "path": "/v1/tune",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("field %q = %v, want %v", k, got[k], v)
		}
	}
}

func TestLoggerText(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "text")
	l.now = fixedClock
	l.Warn("slow request", F("endpoint", "tune"), F("note", "has space"))
	line := buf.String()
	for _, want := range []string{"WARN", "slow request", "endpoint=tune", `note="has space"`} {
		if !strings.Contains(line, want) {
			t.Errorf("text line missing %q: %s", want, line)
		}
	}
}

func TestLoggerPrintfBridge(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "json")
	l.now = fixedClock
	l.Printf("listening on %s", "127.0.0.1:8080")
	var got map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got["msg"] != "listening on 127.0.0.1:8080" || got["level"] != "info" {
		t.Errorf("Printf line = %v", got)
	}
}

func TestNilLoggerIsNoOp(t *testing.T) {
	var l *Logger
	l.Info("dropped") // must not panic
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if got := RequestIDFrom(ctx); got != "" {
		t.Errorf("empty ctx id = %q", got)
	}
	ctx = WithRequestID(ctx, "abc123")
	if got := RequestIDFrom(ctx); got != "abc123" {
		t.Errorf("id = %q, want abc123", got)
	}
	id := NewRequestID()
	if len(id) != 16 {
		t.Errorf("NewRequestID length = %d, want 16", len(id))
	}
	if id == NewRequestID() {
		t.Error("two request IDs collided")
	}
}
