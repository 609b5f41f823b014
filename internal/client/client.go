// Package client is the typed Go client for the stencil-serve tuning API
// (/v1/tune, /v1/rank, /v1/predict, /v1/models) with the retry discipline a
// production caller needs: per-attempt timeouts, capped exponential backoff
// with full jitter, honoring the server's Retry-After hints, and retrying
// only failures that are safe and useful to retry — 429 rate sheds, 503
// queue sheds, other 5xx, and transport errors (connection reset, refused,
// EOF). Every tuning endpoint is idempotent (same request, same answer, no
// server-side state mutated), so retrying a request whose response was lost
// is always safe; a definitive 4xx is the caller's bug and is returned
// immediately, never retried.
//
// Request and response bodies are the internal/wire types the server
// decodes and encodes; a Reply adds the X-Cache verdict and the request ID
// beside the body.
//
// The zero backoff policy (100ms base doubling to a 5s cap, full jitter)
// keeps a retrying fleet from synchronizing into thundering herds: each
// client waits a uniformly random fraction of the current cap, which is the
// textbook full-jitter scheme, and a server-provided Retry-After raises the
// floor so shed traffic really does come back later, not sooner.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Config shapes a Client; the zero value plus BaseURL is production-ready.
type Config struct {
	// BaseURL locates the server, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// ClientID is sent as X-Client-ID so the server's per-client rate
	// limiter keys on a stable identity instead of an ephemeral address.
	ClientID string
	// HTTPClient overrides the transport (default http.DefaultClient; the
	// per-attempt timeout is applied via context either way).
	HTTPClient *http.Client
	// MaxAttempts bounds total tries per call, first attempt included
	// (default 5). The bound is what keeps retries from being unbounded
	// under a persistent fault.
	MaxAttempts int
	// PerAttemptTimeout bounds each individual attempt (default 30s) so a
	// hung connection costs one backoff step, not the whole call.
	PerAttemptTimeout time.Duration
	// BaseBackoff and MaxBackoff shape the exponential schedule (defaults
	// 100ms and 5s). Attempt n waits uniform(0, min(MaxBackoff,
	// BaseBackoff*2^n)), raised to any server Retry-After.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed, when non-zero, makes the jitter deterministic — the resilience
	// tests replay exact retry schedules.
	Seed int64
	// MaxResponseBytes caps how much of a response body the client reads
	// (default 64 MiB). A body at or over the cap is a definitive error —
	// truncated JSON would decode as garbage on every retry, so the client
	// fails fast instead of burning MaxAttempts on a deterministic outcome.
	MaxResponseBytes int64
}

// Client calls the tuning service. Safe for concurrent use.
type Client struct {
	cfg Config

	rngMu sync.Mutex
	rng   *rand.Rand

	attempts atomic.Int64
	retries  atomic.Int64
}

// New validates cfg, fills defaults and returns a ready client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("client: BaseURL is required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.PerAttemptTimeout <= 0 {
		cfg.PerAttemptTimeout = 30 * time.Second
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.MaxResponseBytes <= 0 {
		cfg.MaxResponseBytes = 64 << 20
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Client{cfg: cfg, rng: rand.New(rand.NewSource(seed))}, nil
}

// Attempts reports total HTTP attempts issued; Retries reports how many of
// them were re-tries. The resilience suite asserts retries stay bounded.
func (c *Client) Attempts() int64 { return c.attempts.Load() }
func (c *Client) Retries() int64  { return c.retries.Load() }

// ---------------------------------------------------------------------------
// Replies

// Reply is a decoded response body with the transport facts beside it.
type Reply[T any] struct {
	Body T
	// Cache reports the server's X-Cache verdict: hit, miss or coalesced.
	Cache string
	// RequestID is the X-Request-ID correlation ID the client generated for
	// this logical call and sent on every retry attempt; grep server logs for
	// it to find the matching request lines.
	RequestID string
}

// APIError is a definitive (non-retried or retries-exhausted) server error.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.StatusCode, e.Message)
}

// Retryable reports whether the status is worth retrying: rate sheds,
// queue sheds and transient server faults — never other 4xx, which mean
// the request itself is wrong and will fail identically forever.
func (e *APIError) Retryable() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode >= 500
}

// ---------------------------------------------------------------------------
// Calls

// Tune asks the server for the best tuning vector for a stencil instance.
func (c *Client) Tune(ctx context.Context, req wire.TuneRequest) (*Reply[wire.TuneResponse], error) {
	return call[wire.TuneResponse](ctx, c, "/v1/tune", req)
}

// Rank orders a candidate set (or the predefined one) best-first.
func (c *Client) Rank(ctx context.Context, req wire.RankRequest) (*Reply[wire.RankResponse], error) {
	return call[wire.RankResponse](ctx, c, "/v1/rank", req)
}

// Predict returns per-vector runtimes or scores.
func (c *Client) Predict(ctx context.Context, req wire.PredictRequest) (*Reply[wire.PredictResponse], error) {
	return call[wire.PredictResponse](ctx, c, "/v1/predict", req)
}

// call runs one API call through the retry loop as a POST of body. One
// X-Request-ID is generated per logical call and reused on every retry
// attempt, so all attempts of the same call correlate to the same server log
// lines. The reply is never nil: it carries the ID even when the call fails,
// so callers can surface it next to errors.
func call[T any](ctx context.Context, c *Client, path string, body any) (*Reply[T], error) {
	out := &Reply[T]{RequestID: obs.NewRequestID()}
	payload, err := json.Marshal(body)
	if err != nil {
		return out, fmt.Errorf("client: encoding request: %v", err)
	}

	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if err := c.sleep(ctx, c.backoff(attempt, lastErr)); err != nil {
				return out, err
			}
		}
		cache, retry, err := c.attempt(ctx, path, out.RequestID, payload, &out.Body)
		if err == nil {
			out.Cache = cache
			return out, nil
		}
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		if !retry {
			return out, err
		}
		lastErr = err
	}
	return out, fmt.Errorf("client: giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// attempt issues a single HTTP exchange under its own timeout and reports
// whether a failure is retryable.
func (c *Client) attempt(ctx context.Context, path, requestID string, payload []byte, out any) (cache string, retry bool, err error) {
	c.attempts.Add(1)
	actx, cancel := context.WithTimeout(ctx, c.cfg.PerAttemptTimeout)
	defer cancel()

	req, err := http.NewRequestWithContext(actx, http.MethodPost, c.cfg.BaseURL+path, bytes.NewReader(payload))
	if err != nil {
		return "", false, fmt.Errorf("client: building request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", requestID)
	if c.cfg.ClientID != "" {
		req.Header.Set("X-Client-ID", c.cfg.ClientID)
	}

	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		// Transport-level failure: connection refused/reset, injected
		// drop, per-attempt timeout. All retryable — the endpoints are
		// idempotent, so a request whose response was lost can be safely
		// re-issued.
		return "", true, fmt.Errorf("client: %v", err)
	}
	defer resp.Body.Close()
	// Read one byte past the cap: len(b) > max then distinguishes a truly
	// over-limit body from one that is exactly at it. An at-limit truncation
	// used to decode as garbage and get retried MaxAttempts times with full
	// backoff, even though the outcome is deterministic.
	b, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxResponseBytes+1))
	if err != nil {
		return "", true, fmt.Errorf("client: reading response: %v", err)
	}
	if int64(len(b)) > c.cfg.MaxResponseBytes {
		return "", false, fmt.Errorf("client: response body exceeds the %d-byte client limit; refusing to retry a deterministic failure", c.cfg.MaxResponseBytes)
	}

	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(b))}
		var decoded struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &decoded) == nil && decoded.Error != "" {
			apiErr.Message = decoded.Error
		}
		return "", apiErr.Retryable(), c.rememberRetryAfter(apiErr, resp)
	}
	if err := json.Unmarshal(b, out); err != nil {
		return "", true, fmt.Errorf("client: undecodable 200 response %q: %v", b, err)
	}
	return resp.Header.Get("X-Cache"), false, nil
}

// retryAfterError wraps an APIError with the server's Retry-After hint so
// the backoff schedule can honor it.
type retryAfterError struct {
	*APIError
	after time.Duration
}

func (e *retryAfterError) Unwrap() error { return e.APIError }

// rememberRetryAfter attaches the server's Retry-After hint to the error.
// RFC 9110 allows both delay-seconds and an HTTP-date; a date in the past
// (or a zero/negative delay) floors to zero, i.e. plain jittered backoff.
func (c *Client) rememberRetryAfter(apiErr *APIError, resp *http.Response) error {
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		return apiErr
	}
	if secs, err := strconv.Atoi(ra); err == nil {
		if secs > 0 {
			return &retryAfterError{APIError: apiErr, after: time.Duration(secs) * time.Second}
		}
		return apiErr
	}
	if when, err := http.ParseTime(ra); err == nil {
		if d := time.Until(when); d > 0 {
			return &retryAfterError{APIError: apiErr, after: d}
		}
	}
	return apiErr
}

// backoff computes the wait before retry number attempt (1-based): full
// jitter over the capped exponential schedule, floored at any Retry-After
// the server sent with the previous failure.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	ceil := c.cfg.BaseBackoff << (attempt - 1)
	if ceil > c.cfg.MaxBackoff || ceil <= 0 {
		ceil = c.cfg.MaxBackoff
	}
	c.rngMu.Lock()
	wait := time.Duration(c.rng.Float64() * float64(ceil))
	c.rngMu.Unlock()
	var rae *retryAfterError
	if errors.As(lastErr, &rae) && rae.after > wait {
		wait = rae.after
	}
	return wait
}

// sleep waits d unless ctx ends first.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
