package obs

// Test-only accessors: functions that no binary calls, defined beside the
// tests that read state through them.

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.s.val.Load()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.s.val.Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.h.sum.Load()
}

// Add adjusts the value by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	g.s.val.Add(delta)
}
