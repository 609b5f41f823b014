package machine

import "testing"

func TestXeonDescription(t *testing.T) {
	m := XeonE52680v3()
	if err := m.Validate(); err != nil {
		t.Fatalf("reference machine invalid: %v", err)
	}
	if m.Cores != 12 {
		t.Errorf("cores = %d, want 12", m.Cores)
	}
	if m.Caches[1].SizeBytes != 256<<10 {
		t.Errorf("L2 = %d, want 256 KiB (paper Sec. VI)", m.Caches[1].SizeBytes)
	}
	if m.FreqGHz != 2.5 {
		t.Errorf("freq = %v, want 2.5 GHz", m.FreqGHz)
	}
}

func TestSIMDLanes(t *testing.T) {
	m := XeonE52680v3()
	if got := m.SIMDLanes(4); got != 8 {
		t.Errorf("float lanes = %d, want 8 (AVX2)", got)
	}
	if got := m.SIMDLanes(8); got != 4 {
		t.Errorf("double lanes = %d, want 4 (AVX2)", got)
	}
	if got := m.SIMDLanes(0); got != 1 {
		t.Errorf("degenerate lanes = %d, want 1", got)
	}
	if got := m.SIMDLanes(64); got != 1 {
		t.Errorf("oversized element lanes = %d, want 1", got)
	}
}

func TestEffectiveBytesSharedDivision(t *testing.T) {
	m := XeonE52680v3()
	if got := m.EffectiveBytes(0); got != 32<<10 {
		t.Errorf("L1 effective = %d", got)
	}
	if got := m.EffectiveBytes(2); got != (30<<20)/12 {
		t.Errorf("L3 effective = %d, want per-core share", got)
	}
}

func TestBandwidthMonotoneInWorkingSet(t *testing.T) {
	m := XeonE52680v3()
	sizes := []int{1 << 10, 64 << 10, 1 << 20, 100 << 20}
	prev := m.BandwidthForWorkingSet(sizes[0])
	for _, s := range sizes[1:] {
		bw := m.BandwidthForWorkingSet(s)
		if bw > prev {
			t.Errorf("bandwidth increased with working set: %v -> %v at %d", prev, bw, s)
		}
		prev = bw
	}
	// Tiny working set gets L1 bandwidth; huge gets DRAM share.
	if got := m.BandwidthForWorkingSet(1 << 10); got != 300 {
		t.Errorf("L1 bandwidth = %v", got)
	}
	if got := m.BandwidthForWorkingSet(1 << 30); got != 55.0/12 {
		t.Errorf("DRAM bandwidth = %v", got)
	}
}

func TestCycleNs(t *testing.T) {
	m := XeonE52680v3()
	if got := m.CycleNs(); got != 0.4 {
		t.Errorf("CycleNs = %v, want 0.4", got)
	}
}

func TestValidateCatchesBadDescriptions(t *testing.T) {
	base := func() *Machine { return XeonE52680v3() }
	mutations := map[string]func(*Machine){
		"no-cores":      func(m *Machine) { m.Cores = 0 },
		"no-freq":       func(m *Machine) { m.FreqGHz = 0 },
		"narrow-vector": func(m *Machine) { m.VectorBits = 32 },
		"no-caches":     func(m *Machine) { m.Caches = nil },
		"shrinking-l2":  func(m *Machine) { m.Caches[1].SizeBytes = 1 },
		"zero-cache-bw": func(m *Machine) { m.Caches[0].BandwidthGBs = 0 },
		"zero-dram-bw":  func(m *Machine) { m.MemBandwidthGBs = 0 },
	}
	for name, mutate := range mutations {
		m := base()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}
