package exec

// Test-only accessors: functions that no binary calls, defined beside the
// tests that read state through them.

// Tiles reports the number of tiles in the compiled decomposition.
func (pr *Program[T]) Tiles() int { return len(pr.tiles) }
