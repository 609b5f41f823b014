package middleware

import (
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// ClientIDHeader lets well-behaved clients identify themselves for rate
// limiting independent of their source address (NAT'd fleets, proxies).
const ClientIDHeader = "X-Client-ID"

// RateLimiter is a per-client token-bucket limiter. Each client (keyed by
// X-Client-ID, falling back to the remote address's host) owns a bucket
// holding up to burst tokens refilled at rate tokens/second; a request
// costs one token and a dry bucket answers 429 with a truthful Retry-After.
//
// Buckets for idle clients are pruned once they are full again (a full
// bucket is indistinguishable from a fresh one), so the table stays
// proportional to the set of recently active clients rather than every
// client ever seen.
type RateLimiter struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity

	now func() time.Time // injectable clock for deterministic tests

	mu        sync.Mutex
	buckets   map[string]*bucket
	lastPrune time.Time

	limited *obs.Counter
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter allowing rate requests/second with bursts
// of burst. rate <= 0 disables limiting (Middleware returns the handler
// unchanged); burst < 1 is raised to 1 so a conforming client can always
// make progress.
func NewRateLimiter(rate float64, burst int, reg *obs.Registry) *RateLimiter {
	l := &RateLimiter{
		rate:    rate,
		burst:   math.Max(float64(burst), 1),
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
	if reg != nil {
		l.limited = reg.Counter("stencilserve_rate_limited_total",
			"Requests answered 429 by the per-client rate limiter.")
	}
	return l
}

// ClientKey returns the identity a request is limited under.
func ClientKey(r *http.Request) string {
	if id := r.Header.Get(ClientIDHeader); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// allow spends one token for key if available; otherwise it reports the
// wait until one token will exist.
func (l *RateLimiter) allow(key string) (ok bool, retryAfter time.Duration) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()

	b, exists := l.buckets[key]
	if !exists {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		elapsed := now.Sub(b.last).Seconds()
		if elapsed > 0 {
			b.tokens = math.Min(l.burst, b.tokens+elapsed*l.rate)
			b.last = now
		}
	}
	ok = b.tokens >= 1
	if ok {
		b.tokens--
	} else {
		retryAfter = time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	}
	// Prune after spending, so the bucket serving this request is never
	// full and never sweeps itself away.
	l.maybePrune(now)
	return ok, retryAfter
}

// maybePrune drops full (= effectively fresh) buckets at most once per
// minute; callers hold l.mu.
func (l *RateLimiter) maybePrune(now time.Time) {
	if now.Sub(l.lastPrune) < time.Minute {
		return
	}
	l.lastPrune = now
	for key, b := range l.buckets {
		tokens := math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		if tokens >= l.burst {
			delete(l.buckets, key)
		}
	}
}

// Middleware enforces the limiter: over-limit requests are answered 429
// with a Retry-After (whole seconds, rounded up so a client that honors it
// never arrives early) and a stencilserve_rate_limited_total increment.
func (l *RateLimiter) Middleware() func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		if l == nil || l.rate <= 0 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ok, retryAfter := l.allow(ClientKey(r))
			if !ok {
				l.limited.Inc()
				secs := int64(math.Ceil(retryAfter.Seconds()))
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
				writeJSONError(w, http.StatusTooManyRequests, "rate limit exceeded")
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}
