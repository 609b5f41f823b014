package wire

import (
	"encoding/json"
	"testing"

	"repro/internal/feature"
	"repro/internal/stencil"
)

// FuzzVectorJSON feeds arbitrary vector-list JSON through Tunings for a 2-D
// and a 3-D kernel. Each list must either fail, or yield vectors that all
// validate, come back unchanged through FromTuning and Tuning, and score
// through a feature plan without panicking.
func FuzzVectorJSON(f *testing.F) {
	for _, body := range []string{
		`[]`, `null`, `[{}]`, `{`, `[1]`,
		`[{"bx":8,"by":8,"bz":8,"u":0,"c":1}]`,
		`[{"bx":64,"by":32,"u":4,"c":2}]`,
		`[{"bx":64,"by":32,"bz":1,"u":4,"c":2,"k":3}]`,
		`[{"bx":1024,"by":1024,"bz":1024,"u":8,"c":16,"k":4},{"bx":2,"by":2,"bz":2,"u":0,"c":1,"k":1}]`,
		`[{"bx":8,"by":8,"bz":8,"u":0,"c":0}]`,
		`[{"bx":4096,"by":8,"bz":8,"u":0,"c":1}]`,
		`[{"bx":8,"by":8,"bz":8,"u":0,"c":1},{"bx":8,"by":8,"bz":8,"u":9,"c":1}]`,
		`[{"bx":8,"by":8,"bz":8,"u":0,"c":1,"k":5}]`,
		`[{"bx":-8,"by":8,"bz":8,"u":-1,"c":1,"k":-1}]`,
		`[{"bx":8.5,"by":8}]`,
	} {
		f.Add([]byte(body))
	}
	instances := map[int]stencil.Instance{
		2: {Kernel: stencil.Blur(), Size: stencil.Size2D(1024, 768)},
		3: {Kernel: stencil.Laplacian(), Size: stencil.Size3D(128, 128, 128)},
	}
	enc := feature.NewEncoder()
	w := make([]float64, feature.Dim)
	for i := range w {
		w[i] = float64(i%7) - 3
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var vs []Vector
		if json.Unmarshal(body, &vs) != nil {
			return
		}
		for dims, q := range instances {
			tvs, err := Tunings(vs, dims)
			if err != nil {
				continue
			}
			if len(tvs) != len(vs) {
				t.Fatalf("%d-D: %d vectors in, %d out", dims, len(vs), len(tvs))
			}
			for i, tv := range tvs {
				if err := tv.Validate(dims); err != nil {
					t.Fatalf("%d-D: accepted vector %d %+v fails Validate: %v", dims, i, tv, err)
				}
				if back := FromTuning(tv).Tuning(dims); back != tv {
					t.Fatalf("%d-D: vector %d %+v round-trips to %+v", dims, i, tv, back)
				}
			}
			enc.Plan(q).ScoreInto(make([]float64, len(tvs)), w, tvs)
		}
	})
}
