package feature

// Test-only accessors: functions that no binary calls, defined beside the
// tests that read state through them.

// Get returns the value at feature index i (0 when absent).
func (v Vector) Get(i int) float64 {
	// Binary search over the ordered indices.
	lo, hi := 0, len(v.Idx)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(v.Idx[mid]) < i:
			lo = mid + 1
		case int(v.Idx[mid]) > i:
			hi = mid
		default:
			return v.Val[mid]
		}
	}
	return 0
}
