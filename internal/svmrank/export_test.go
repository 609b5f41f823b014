package svmrank

// Test-only helpers: functions that no binary calls, defined beside the
// tests that use them.

// TopK returns the first min(k, len(scores)) entries of Order(scores): Top
// fed the whole score vector at once.
func TopK(scores []float64, k int) []int {
	t := NewTop(min(k, len(scores)))
	t.Add(scores)
	return t.Indices()
}
