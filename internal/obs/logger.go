package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Field is one key/value pair on a log line.
type Field struct {
	Key   string
	Value any
}

// F builds a Field; it exists so call sites read as obs.F("status", 200).
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Logger writes structured log lines in either JSON (one object per line) or
// a human-oriented text format. A Logger is safe for concurrent use; children
// created by With share the parent's output mutex.
type Logger struct {
	mu     *sync.Mutex
	w      io.Writer
	json   bool
	fields []Field
	now    func() time.Time // injectable for tests
}

// NewLogger returns a Logger writing to w. format is "json" or "text";
// anything else defaults to text.
func NewLogger(w io.Writer, format string) *Logger {
	return &Logger{
		mu:   new(sync.Mutex),
		w:    w,
		json: format == "json",
		now:  time.Now,
	}
}

// With returns a child logger that includes the given fields on every line.
func (l *Logger) With(fields ...Field) *Logger {
	child := *l
	child.fields = append(append([]Field(nil), l.fields...), fields...)
	return &child
}

// Info logs at level info.
func (l *Logger) Info(msg string, fields ...Field) { l.log("info", msg, fields) }

// Warn logs at level warn.
func (l *Logger) Warn(msg string, fields ...Field) { l.log("warn", msg, fields) }

// Error logs at level error.
func (l *Logger) Error(msg string, fields ...Field) { l.log("error", msg, fields) }

// Printf logs a formatted message at level info. It keeps plain-text call
// sites (startup banners, shutdown notices) working against the structured
// logger without reformatting every message into fields.
func (l *Logger) Printf(format string, args ...any) {
	l.log("info", fmt.Sprintf(format, args...), nil)
}

// linePool recycles line buffers so steady-state logging allocates nothing
// for the line itself.
var linePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

func (l *Logger) log(level, msg string, fields []Field) {
	if l == nil || l.w == nil {
		return
	}
	ts := l.now().UTC()
	bp := linePool.Get().(*[]byte)
	var line []byte
	if l.json {
		line = l.jsonLine((*bp)[:0], ts, level, msg, fields)
	} else {
		line = l.textLine((*bp)[:0], ts, level, msg, fields)
	}
	l.mu.Lock()
	l.w.Write(line)
	l.mu.Unlock()
	*bp = line[:0]
	linePool.Put(bp)
}

func (l *Logger) jsonLine(b []byte, ts time.Time, level, msg string, fields []Field) []byte {
	b = append(b, `{"ts":"`...)
	b = ts.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","level":`...)
	b = appendJSONString(b, level)
	b = append(b, `,"msg":`...)
	b = appendJSONString(b, msg)
	for _, set := range [2][]Field{l.fields, fields} {
		for _, f := range set {
			b = append(b, ',')
			b = appendJSONString(b, f.Key)
			b = append(b, ':')
			b = appendJSONValue(b, f.Value)
		}
	}
	b = append(b, '}', '\n')
	return b
}

func (l *Logger) textLine(b []byte, ts time.Time, level, msg string, fields []Field) []byte {
	b = ts.AppendFormat(b, time.RFC3339Nano)
	b = append(b, ' ')
	b = append(b, strings.ToUpper(level)...)
	b = append(b, ' ')
	b = append(b, msg...)
	for _, set := range [2][]Field{l.fields, fields} {
		for _, f := range set {
			b = append(b, ' ')
			b = append(b, f.Key...)
			b = append(b, '=')
			b = appendTextValue(b, f.Value)
		}
	}
	b = append(b, '\n')
	return b
}

// appendJSONString appends s as a JSON string. The common case — no
// characters needing escapes — is appended directly; anything else goes
// through encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			if buf, err := json.Marshal(s); err == nil {
				return append(b, buf...)
			}
			return append(b, `""`...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONValue appends v as a JSON value, fast-pathing the field types
// every request log line carries so the hot path never enters reflection.
func appendJSONValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return appendJSONString(b, x)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case bool:
		return strconv.AppendBool(b, x)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case *Trace:
		return x.AppendJSON(b)
	}
	buf, err := json.Marshal(v)
	if err != nil {
		return appendJSONString(b, fmt.Sprint(v))
	}
	return append(b, buf...)
}

func appendTextValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		if strings.ContainsAny(x, " \t\n\"=") {
			return appendJSONString(b, x)
		}
		return append(b, x...)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case *Trace:
		return x.AppendJSON(b)
	}
	s := fmt.Sprint(v)
	if strings.ContainsAny(s, " \t\n\"=") {
		return appendJSONString(b, s)
	}
	return append(b, s...)
}

// ---------------------------------------------------------------------------
// Request IDs

// requestIDKey carries the per-request correlation ID through a context.
type requestIDKey struct{}

// WithRequestID returns a context carrying the correlation ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the correlation ID carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// NewRequestID returns a fresh 16-hex-character correlation ID.
func NewRequestID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(buf[:])
}
