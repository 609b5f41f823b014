package grid

// Test-only accessors: functions that no binary calls, defined beside the
// tests that read state through them.

// InteriorPoints returns the number of interior (non-halo) cells.
func (g *Grid[T]) InteriorPoints() int { return g.NX * g.NY * g.NZ }

// StrideX returns the x-stride (allocated row length).
func (g *Grid[T]) StrideX() int { return g.strideX }

// StrideY returns the number of allocated rows per plane.
func (g *Grid[T]) StrideY() int { return g.strideY }
