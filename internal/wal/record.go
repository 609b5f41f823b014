package wal

import (
	"fmt"
	"math"

	"repro/internal/shape"
	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// Record is one observed stencil execution: enough structure to rebuild the
// training example (the kernel's access pattern, not just a name — names are
// informational and never enter feature encoding), the tuning vector that ran
// (including the temporal fusion depth K), and the measured wall-clock cost.
// Machine tags which host produced the timing, so a fleet of servers can
// contribute observations to one log and the trainer can keep per-machine
// rankings apart.
type Record struct {
	// Fingerprint is the structural kernel fingerprint the serving cache
	// keys on; observations of structurally equal kernels share it.
	Fingerprint string `json:"fp,omitempty"`
	// Kernel is the informational kernel name, if any.
	Kernel string `json:"kernel,omitempty"`
	// Offsets is the access pattern: one [x, y, z, multiplicity] row per
	// distinct offset. 2-D kernels carry z = 0 rows.
	Offsets [][4]int `json:"offsets"`
	// Buffers is the number of input buffers the kernel reads.
	Buffers int `json:"buffers"`
	// DType is the element type: "float" or "double".
	DType string `json:"dtype"`
	// Size is the grid extent [x, y, z]; z = 1 for 2-D instances.
	Size [3]int `json:"size"`
	// Vector is the tuning vector [bx, by, bz, u, c, k].
	Vector [6]int `json:"vector"`
	// RuntimeSeconds is the measured wall-clock runtime.
	RuntimeSeconds float64 `json:"runtime_seconds"`
	// Machine identifies the host that measured the runtime.
	Machine string `json:"machine,omitempty"`
	// Source says who measured: "measure" (the server's own executor) or
	// "observe" (a client-reported runtime via /v1/observe).
	Source string `json:"source,omitempty"`
	// UnixNano is the observation wall-clock timestamp, when known.
	UnixNano int64 `json:"unix_nano,omitempty"`
}

// NewRecord builds a Record from an instance, tuning vector and measured
// runtime, capturing the kernel structure so the observation is trainable
// without access to the original kernel registry.
func NewRecord(q stencil.Instance, t tunespace.Vector, runtimeSeconds float64) Record {
	r := Record{
		Kernel:         q.Kernel.Name,
		Buffers:        q.Kernel.Buffers,
		DType:          q.Kernel.Type.String(),
		Size:           [3]int{q.Size.X, q.Size.Y, q.Size.Z},
		Vector:         [6]int{t.Bx, t.By, t.Bz, t.U, t.C, t.EffFuse()},
		RuntimeSeconds: runtimeSeconds,
	}
	for _, p := range q.Kernel.Shape.Points() {
		r.Offsets = append(r.Offsets, [4]int{p.X, p.Y, p.Z, q.Kernel.Shape.Multiplicity(p)})
	}
	return r
}

// Validate checks the record is structurally sound and its measurement is a
// usable training signal (finite, positive runtime).
func (r *Record) Validate() error {
	if len(r.Offsets) == 0 {
		return fmt.Errorf("wal: record has no offsets")
	}
	q, err := r.Instance()
	if err != nil {
		return err
	}
	if err := q.Validate(); err != nil {
		return fmt.Errorf("wal: record instance: %w", err)
	}
	if err := r.Tuning().Validate(q.Kernel.Dims()); err != nil {
		return fmt.Errorf("wal: record vector: %w", err)
	}
	if !(r.RuntimeSeconds > 0) || math.IsInf(r.RuntimeSeconds, 0) || r.RuntimeSeconds > 3600 {
		return fmt.Errorf("wal: record runtime %v not in (0s, 1h]", r.RuntimeSeconds)
	}
	if len(r.Machine) > 128 {
		return fmt.Errorf("wal: record machine id longer than 128 bytes")
	}
	return nil
}

// Instance reconstructs the stencil instance the record observed.
func (r *Record) Instance() (stencil.Instance, error) {
	dt, err := stencil.ParseDataType(r.DType)
	if err != nil {
		return stencil.Instance{}, fmt.Errorf("wal: record %w", err)
	}
	sh := shape.New()
	for _, o := range r.Offsets {
		mult := o[3]
		if mult < 1 {
			mult = 1
		}
		sh.Add(shape.Point{X: o[0], Y: o[1], Z: o[2]}, mult)
	}
	name := r.Kernel
	if name == "" {
		name = "observed"
	}
	k := &stencil.Kernel{Name: name, Shape: sh, Buffers: r.Buffers, Type: dt}
	return stencil.Instance{
		Kernel: k,
		Size:   stencil.Size{X: r.Size[0], Y: r.Size[1], Z: r.Size[2]},
	}, nil
}

// Tuning returns the record's tuning vector.
func (r *Record) Tuning() tunespace.Vector {
	v := r.Vector
	return tunespace.Vector{Bx: v[0], By: v[1], Bz: v[2], U: v[3], C: v[4], K: v[5]}
}
