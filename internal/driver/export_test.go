package driver

// Test-only accessors: functions that no binary calls, defined beside the
// tests that read state through them.

// Steps returns how many steps have run.
func (s *Simulation[T]) Steps() int { return s.step }

// Step advances one time level: refresh halos on every input level, apply
// the kernel, rotate the ring.
func (s *Simulation[T]) Step() error {
	tv := s.Tuning
	tv.K = 1
	_, err := s.advance(tv)
	return err
}
