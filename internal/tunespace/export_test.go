package tunespace

// Test-only accessors: functions that no binary calls, defined beside the
// tests that read state through them.

// Contains reports whether v is a legal point of the space.
func (s Space) Contains(v Vector) bool { return v.Validate(s.Dims) == nil }
