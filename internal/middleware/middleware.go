// Package middleware is the operational hardening layer of the tuning
// service: composable http.Handler wrappers that keep a stencil-serve
// process answering under hostile conditions. A served tuning decision is
// only cheap if the server stays up and fast when clients misbehave, so the
// chain provides the classic production guards — panic isolation (one bad
// request must never kill the process), per-client token-bucket rate
// limiting with honest Retry-After hints, request-ID injection for log
// correlation, and request body size caps — each as an independent wrapper
// so commands compose exactly the order they need.
//
// Conventional order (outermost first):
//
//	RequestID → Recover → RateLimit → MaxBytes → JSONContentType(TimeoutHandler(mux))
//
// RequestID outermost so every log line (including panic reports) carries
// the correlation ID; Recover above everything that runs request logic;
// RateLimit before body handling so a shed request costs no read; the
// content-type defaulter innermost around http.TimeoutHandler, whose
// timeout body is written without a Content-Type.
//
// Counters land in an obs.Registry shared with the server's /metrics
// surface (stencilserve_panics_total, stencilserve_rate_limited_total,
// stencilserve_body_too_large_total), so overload and fault behavior is
// observable where operators already look. Every constructor accepts a nil
// registry and/or logger; instrumentation simply switches off.
package middleware

import (
	"fmt"
	"net/http"
	"runtime/debug"

	"repro/internal/obs"
)

// Chain wraps h with the given middleware, outermost first: the first
// element of mws sees the request before all others.
func Chain(h http.Handler, mws ...func(http.Handler) http.Handler) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// writeJSONError emits the middleware's uniform error shape — the same
// {"error": ...} object the server's handlers produce — so clients parse
// one format regardless of which layer rejected them.
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", msg)
}

// ---------------------------------------------------------------------------
// Request IDs

// RequestIDHeader is the wire header for request correlation IDs.
const RequestIDHeader = "X-Request-ID"

// RequestID propagates the client's X-Request-ID (or generates a fresh
// 16-hex-digit one) into the request context and echoes it on the response,
// so one ID correlates client logs, server logs and panic reports. The ID
// lives under obs's context key: obs.RequestIDFrom reads it.
func RequestID() func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get(RequestIDHeader)
			if id == "" || len(id) > 128 {
				id = obs.NewRequestID()
			}
			w.Header().Set(RequestIDHeader, id)
			r = r.WithContext(obs.WithRequestID(r.Context(), id))
			r.Header.Set(RequestIDHeader, id)
			next.ServeHTTP(w, r)
		})
	}
}

// ---------------------------------------------------------------------------
// Panic recovery

// Recover converts a handler panic into a 500 JSON error plus a logged
// stack trace and a stencilserve_panics_total increment — the request dies,
// the server does not. The log line carries the request ID, method and route
// so a panic is attributable to the request that caused it.
// http.ErrAbortHandler passes through untouched: it is net/http's sanctioned
// way to abort a response, not a defect.
func Recover(logger *obs.Logger, reg *obs.Registry) func(http.Handler) http.Handler {
	var panics *obs.Counter
	if reg != nil {
		panics = reg.Counter("stencilserve_panics_total",
			"Handler panics recovered by the middleware chain.")
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				panics.Inc()
				logger.Error("panic recovered",
					obs.F("request_id", obs.RequestIDFrom(r.Context())),
					obs.F("method", r.Method),
					obs.F("path", r.URL.Path),
					obs.F("panic", fmt.Sprint(rec)),
					obs.F("stack", string(debug.Stack())))
				// Best effort: if the handler already wrote a status line
				// this write fails silently, which is all that can be done.
				writeJSONError(w, http.StatusInternalServerError, "internal server error")
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// ---------------------------------------------------------------------------
// Request size caps

// MaxBytes rejects requests whose declared Content-Length exceeds limit
// with an immediate 413, and wraps the body with http.MaxBytesReader so
// chunked or lying clients are cut off at the same bound (the handler's
// read error then carries *http.MaxBytesError, which the server maps to
// 413 as well). limit <= 0 disables the cap.
func MaxBytes(limit int64, reg *obs.Registry) func(http.Handler) http.Handler {
	var tooLarge *obs.Counter
	if reg != nil && limit > 0 {
		tooLarge = reg.Counter("stencilserve_body_too_large_total",
			"Requests rejected for exceeding the body size cap.")
	}
	return func(next http.Handler) http.Handler {
		if limit <= 0 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.ContentLength > limit {
				tooLarge.Inc()
				writeJSONError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body %d bytes exceeds limit %d", r.ContentLength, limit))
				return
			}
			if r.Body != nil {
				r.Body = http.MaxBytesReader(w, r.Body, limit)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// ---------------------------------------------------------------------------
// Content-type defaulting

// JSONContentType guarantees every response carries a Content-Type,
// defaulting to application/json when the inner handler writes a body
// without declaring one. Its purpose in this chain is http.TimeoutHandler,
// whose timeout error body is written bare and would otherwise be sniffed
// to text/plain — with this wrapper a timed-out request still yields a
// well-formed JSON error with the right media type.
func JSONContentType() func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(&jsonCTWriter{ResponseWriter: w}, r)
		})
	}
}

type jsonCTWriter struct {
	http.ResponseWriter
	wroteHeader bool
}

func (w *jsonCTWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.wroteHeader = true
		if w.Header().Get("Content-Type") == "" {
			w.Header().Set("Content-Type", "application/json")
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *jsonCTWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards http.Flusher so streaming through the wrapper still works.
func (w *jsonCTWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
