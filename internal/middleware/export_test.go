package middleware

// Test-only accessors: functions that no binary calls, defined beside the
// tests that read state through them.

// Clients reports how many client buckets are currently tracked.
func (l *RateLimiter) Clients() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}
