// Package machine describes the hardware the performance simulator models.
// The paper's evaluation platform is an Intel Xeon E5-2680 v3: 12 cores at
// 2.5 GHz, 32 KiB L1D and 256 KiB L2 per core, a 30 MiB shared L3, 32 GB of
// DDR4, and 256-bit AVX2 vector units.
//
// The description is pure data: all modeling logic lives in
// internal/perfmodel, so alternative machines (for portability experiments)
// can be described without touching the model.
package machine

import "fmt"

// Cache describes one level of the data-cache hierarchy.
type Cache struct {
	Name string
	// SizeBytes is the capacity visible to one core (shared caches report
	// the per-core share in EffectiveBytes).
	SizeBytes int
	// Shared reports whether the level is shared between all cores.
	Shared bool
	// BandwidthGBs is the sustainable read bandwidth from this level into
	// the core, in GB/s per core.
	BandwidthGBs float64
}

// Machine is a complete description of a target platform.
type Machine struct {
	Name       string
	Cores      int
	FreqGHz    float64
	VectorBits int     // SIMD register width
	Caches     []Cache // ordered from L1 outward
	// MemBandwidthGBs is the aggregate DRAM bandwidth across the socket.
	MemBandwidthGBs float64
	// ThreadSpawnOverheadNs approximates the cost of dispatching one unit
	// of work to a worker thread (OpenMP chunk dispatch / goroutine wakeup).
	ThreadSpawnOverheadNs float64
	// LoopOverheadCycles is the per-iteration control overhead of a
	// non-unrolled innermost loop.
	LoopOverheadCycles float64
}

// XeonE52680v3 returns the description of the paper's evaluation machine.
func XeonE52680v3() *Machine {
	return &Machine{
		Name:       "Intel Xeon E5-2680 v3",
		Cores:      12,
		FreqGHz:    2.5,
		VectorBits: 256,
		Caches: []Cache{
			{Name: "L1D", SizeBytes: 32 << 10, BandwidthGBs: 300},
			{Name: "L2", SizeBytes: 256 << 10, BandwidthGBs: 120},
			{Name: "L3", SizeBytes: 30 << 20, Shared: true, BandwidthGBs: 60},
		},
		MemBandwidthGBs:       55,
		ThreadSpawnOverheadNs: 400,
		LoopOverheadCycles:    2,
	}
}

// SIMDLanes returns how many elements of the given byte width fit in one
// vector register (8 floats or 4 doubles for AVX2).
func (m *Machine) SIMDLanes(elemBytes int) int {
	if elemBytes <= 0 {
		return 1
	}
	lanes := m.VectorBits / 8 / elemBytes
	if lanes < 1 {
		return 1
	}
	return lanes
}

// EffectiveBytes returns the cache capacity available to one core at the
// given level (shared caches are divided among cores).
func (m *Machine) EffectiveBytes(level int) int {
	c := m.Caches[level]
	if c.Shared {
		return c.SizeBytes / m.Cores
	}
	return c.SizeBytes
}

// CycleNs returns the duration of one core cycle in nanoseconds.
func (m *Machine) CycleNs() float64 { return 1.0 / m.FreqGHz }

// Validate checks the description is self-consistent.
func (m *Machine) Validate() error {
	if m.Cores < 1 {
		return fmt.Errorf("machine %q: %d cores", m.Name, m.Cores)
	}
	if m.FreqGHz <= 0 {
		return fmt.Errorf("machine %q: frequency %v", m.Name, m.FreqGHz)
	}
	if m.VectorBits < 64 {
		return fmt.Errorf("machine %q: vector width %d", m.Name, m.VectorBits)
	}
	if len(m.Caches) == 0 {
		return fmt.Errorf("machine %q: no caches", m.Name)
	}
	prev := 0
	for i, c := range m.Caches {
		if c.SizeBytes <= prev {
			return fmt.Errorf("machine %q: cache %d (%s) not larger than inner level", m.Name, i, c.Name)
		}
		prev = c.SizeBytes
		if c.BandwidthGBs <= 0 {
			return fmt.Errorf("machine %q: cache %s bandwidth %v", m.Name, c.Name, c.BandwidthGBs)
		}
	}
	if m.MemBandwidthGBs <= 0 {
		return fmt.Errorf("machine %q: memory bandwidth %v", m.Name, m.MemBandwidthGBs)
	}
	return nil
}
