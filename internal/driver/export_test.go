package driver

// Test-only accessors: functions that no binary calls, defined beside the
// tests that read state through them.

// Steps returns how many steps have run.
func (s *Simulation[T]) Steps() int { return s.step }
