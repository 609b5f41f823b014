// Package wire is the JSON schema of the tuning service: the request and
// response bodies of /v1/tune, /v1/rank, /v1/predict, /v1/observe and
// /v1/models. The server decodes into these types and the client encodes
// them, and stencil-tune builds its local kernel through the same Kernel
// spec it sends with -server, so a request means one thing on every path.
package wire

import (
	"encoding/json"
	"fmt"

	"repro/internal/dsl"
	"repro/internal/shape"
	"repro/internal/stencil"
	"repro/internal/store"
	"repro/internal/tunespace"
)

// Vector is a tuning vector on the wire. A 2-D request may omit bz
// (normalized to the required bz=1); k may be omitted for unfused vectors
// (normalized to the equivalent k=1).
type Vector struct {
	Bx int `json:"bx"`
	By int `json:"by"`
	Bz int `json:"bz,omitempty"`
	U  int `json:"u"`
	C  int `json:"c"`
	K  int `json:"k,omitempty"`
}

// FromTuning is the wire form of a tuning vector.
func FromTuning(v tunespace.Vector) Vector {
	return Vector{Bx: v.Bx, By: v.By, Bz: v.Bz, U: v.U, C: v.C, K: v.EffFuse()}
}

// Tuning is the tuning vector for a kernel of dims dimensions, with the
// omitted bz and k filled in.
func (v Vector) Tuning(dims int) tunespace.Vector {
	out := tunespace.Vector{Bx: v.Bx, By: v.By, Bz: v.Bz, U: v.U, C: v.C, K: v.K}
	if dims == 2 && out.Bz == 0 {
		out.Bz = 1
	}
	if out.K == 0 {
		out.K = 1
	}
	return out
}

// Kernel selects the stencil kernel: a Table III benchmark name, an inline
// DSL source (Name then picks the definition, else the first one), or an
// explicit offset list with buffer count (default 1) and dtype (default
// float). On the wire it is such an object or a bare name string.
type Kernel struct {
	Name    string  `json:"name,omitempty"`
	DSL     string  `json:"dsl,omitempty"`
	Offsets [][]int `json:"offsets,omitempty"`
	Buffers int     `json:"buffers,omitempty"`
	DType   string  `json:"dtype,omitempty"`
}

// Named is the spec of a Table III benchmark kernel.
func Named(name string) Kernel { return Kernel{Name: name} }

// UnmarshalJSON accepts a bare name string or a spec object.
func (k *Kernel) UnmarshalJSON(b []byte) error {
	*k = Kernel{}
	if len(b) > 0 && b[0] == '"' {
		return json.Unmarshal(b, &k.Name)
	}
	type object Kernel
	if err := json.Unmarshal(b, (*object)(k)); err != nil {
		return fmt.Errorf("kernel must be a name or an object: %v", err)
	}
	return nil
}

// Build constructs the kernel the spec selects.
func (k Kernel) Build() (*stencil.Kernel, error) {
	switch {
	case k.DSL != "":
		defs, err := dsl.ParseString(k.DSL)
		if err != nil {
			return nil, fmt.Errorf("parsing kernel DSL: %v", err)
		}
		for _, d := range defs {
			if d.Name == k.Name {
				return d.Kernel(), nil
			}
		}
		return defs[0].Kernel(), nil
	case len(k.Offsets) > 0:
		sh := shape.New()
		for _, o := range k.Offsets {
			if len(o) != 2 && len(o) != 3 {
				return nil, fmt.Errorf("offset %v must have 2 or 3 components", o)
			}
			p := shape.Point{X: o[0], Y: o[1]}
			if len(o) == 3 {
				p.Z = o[2]
			}
			sh.Add(p, 1)
		}
		name := k.Name
		if name == "" {
			name = "custom"
		}
		dt := stencil.Float32
		if k.DType != "" {
			var err error
			if dt, err = stencil.ParseDataType(k.DType); err != nil {
				return nil, err
			}
		}
		return &stencil.Kernel{Name: name, Shape: sh, Buffers: max(k.Buffers, 1), Type: dt}, nil
	case k.Name != "":
		return stencil.KernelByName(k.Name)
	default:
		return nil, fmt.Errorf("kernel needs a name, dsl or offsets")
	}
}

// Instance addresses one stencil instance under a served model (empty
// Model: the server's default). Every request body that names an instance
// embeds it.
type Instance struct {
	Model  string `json:"model,omitempty"`
	Kernel Kernel `json:"kernel"`
	Size   string `json:"size"`
}

// Build constructs the stencil instance and validates it.
func (in *Instance) Build() (stencil.Instance, error) {
	k, err := in.Kernel.Build()
	if err != nil {
		return stencil.Instance{}, err
	}
	size, err := stencil.ParseSize(in.Size)
	if err != nil {
		return stencil.Instance{}, err
	}
	q := stencil.Instance{Kernel: k, Size: size}
	if err := q.Validate(); err != nil {
		return stencil.Instance{}, err
	}
	return q, nil
}

// TuneRequest asks for the best vector of the predefined set.
type TuneRequest struct {
	Instance
	// TopK > 0 switches to hybrid tuning: evaluate the top-k ranked
	// candidates with Mode's evaluator and return the evaluated best.
	TopK int `json:"topk,omitempty"`
	// Mode is the hybrid evaluator: "sim" (default) or "measure".
	Mode string `json:"mode,omitempty"`
}

// TuneResponse is the model's pick, plus the measured pick of a hybrid tune.
type TuneResponse struct {
	Model            string  `json:"model"`
	Instance         string  `json:"instance"`
	Best             Vector  `json:"best"`
	RankedCandidates int     `json:"ranked_candidates"`
	RankMicros       int64   `json:"rank_micros"`
	Hybrid           *Hybrid `json:"hybrid,omitempty"`
}

// Hybrid is the evaluated winner among a hybrid tune's top-k.
type Hybrid struct {
	TopK      int     `json:"topk"`
	Mode      string  `json:"mode"`
	Best      Vector  `json:"best"`
	BestValue float64 `json:"best_value_seconds"`
}

// RankRequest asks for a candidate set ordered best-first.
type RankRequest struct {
	Instance
	// Candidates to rank; empty ranks the predefined set for the kernel's
	// dimensionality.
	Candidates []Vector `json:"candidates,omitempty"`
	// ReturnScores includes the model score of every candidate.
	ReturnScores bool `json:"return_scores,omitempty"`
}

// RankResponse orders the candidates by index, best first.
type RankResponse struct {
	Model      string    `json:"model"`
	Instance   string    `json:"instance"`
	Candidates int       `json:"candidates"`
	Order      []int     `json:"order"`
	Best       Vector    `json:"best"`
	Scores     []float64 `json:"scores,omitempty"`
}

// PredictRequest asks for one value per vector.
type PredictRequest struct {
	Instance
	Vectors []Vector `json:"vectors"`
	// Mode selects the predicted quantity: "sim" (default) simulated
	// runtime seconds, "measure" wall-clock seconds, "score" raw model
	// ranking scores (higher ranks better).
	Mode string `json:"mode,omitempty"`
}

// PredictResponse holds the values in request order.
type PredictResponse struct {
	Model    string    `json:"model"`
	Instance string    `json:"instance"`
	Mode     string    `json:"mode"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
}

// ObserveRequest reports runtimes a client measured on its own machine for
// the instance; they feed the retrain loop.
type ObserveRequest struct {
	Instance
	Observations []Observation `json:"observations"`
	// Machine tags which host measured; defaults to the server's own id.
	Machine string `json:"machine,omitempty"`
}

// Observation is one client-reported execution of the request's instance.
type Observation struct {
	Vector         Vector  `json:"vector"`
	RuntimeSeconds float64 `json:"runtime_seconds"`
}

// ObserveResponse counts the observations queued for the log and those shed.
type ObserveResponse struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
}

// ModelInfo is one served model's provenance, without the per-weight
// feature names.
type ModelInfo struct {
	Name               string  `json:"name"`
	ContentHash        string  `json:"content_hash"`
	FeatureDim         int     `json:"feature_dim"`
	TrainingPoints     int     `json:"training_points,omitempty"`
	Seed               int64   `json:"seed,omitempty"`
	Mode               string  `json:"mode,omitempty"`
	C                  float64 `json:"c,omitempty"`
	Pairs              int     `json:"pairs,omitempty"`
	DatasetFingerprint string  `json:"dataset_fingerprint,omitempty"`
	Machine            string  `json:"machine,omitempty"`
}

// ModelsResponse lists the served model set.
type ModelsResponse struct {
	Default            string            `json:"default"`
	RegistryVersion    int64             `json:"registry_version"`
	RegistryGeneration string            `json:"registry_generation"`
	Models             []ModelInfo       `json:"models"`
	Skipped            []string          `json:"skipped,omitempty"`
	Promotions         []store.Promotion `json:"promotions,omitempty"`
}
