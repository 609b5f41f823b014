package server

// Test-only accessors: functions that no binary calls, defined beside the
// tests that read state through them.

// Generation returns the content-derived fingerprint of the served model
// set; replicas over the same store dir report the same value.
func (r *Registry) Generation() string { return r.snapshot().generation }

// RegistryGeneration reports the content-derived fingerprint of the served
// model set. Replicas started from (or reloaded against) the same -models
// store state report the same generation, which is how a load balancer
// verifies a fleet serves one model set.
func (s *Server) RegistryGeneration() string { return s.reg.Generation() }

// FlightWaiting reports how many requests are currently parked behind an
// in-flight identical computation.
func (s *Server) FlightWaiting() int { return s.flight.Waiting() }
