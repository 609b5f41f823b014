package server

import (
	"encoding/json"
	"testing"

	"repro/internal/wire"
)

// FuzzInstanceRequest drives the one request parse with arbitrary bodies:
// decoding into the wire schema, building the instance and RoutingKey. None
// of it may panic, and a body that routes must route to the same key once
// its decoded request is re-encoded — the key belongs to the request, not
// to its spelling on the wire.
func FuzzInstanceRequest(f *testing.F) {
	const offsets = `[[0,0,0],[1,0,0],[-1,0,0],[0,1,0],[0,-1,0],[0,0,1],[0,0,-1]]`
	for _, body := range []string{
		`{"kernel":"laplacian","size":"64x64x64"}`,
		` {"size": "64x64x64", "kernel": "laplacian"} `,
		`{"kernel":{"name":"mine","offsets":` + offsets + `},"size":"64x64x64"}`,
		`{"kernel":{"name":"yours","offsets":` + offsets + `},"size":"64x64x64"}`,
		`{"kernel":"laplacian","size":"128x128x128"}`,
		`{"model":"other","kernel":"laplacian","size":"64x64x64"}`,
		``, `{`, `{"kernel":"no-such-kernel","size":"64x64x64"}`, `{"kernel":"laplacian","size":"0x0"}`,
		`{"model":"tiny","kernel":{"offsets":[[1,0],[-1,0],[0,1],[0,-1]]},"size":"48x48x48"}`,
		`{"model":"tiny","kernel":"laplacian","size":"48x48","topk":2,"mode":"measure"}`,
		`{"kernel":{"name":"s","dsl":"stencil s {\n dims 2\n type float\n point (0,0,0) 1.0\n point (1,0,0) 1.0\n}"},"size":"64x64"}`,
	} {
		f.Add([]byte(body))
	}
	for _, size := range malformedSizes {
		for _, kernel := range []string{"laplacian", "edge"} {
			f.Add([]byte(`{"model":"tiny","kernel":"` + kernel + `","size":"` + size + `"}`))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req wire.TuneRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		req.Build()
		key, ok := RoutingKey(body)
		if !ok {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding %q: %v", body, err)
		}
		if key2, ok := RoutingKey(again); !ok || key2 != key {
			t.Fatalf("%q routes to %q, its re-encoding %q to %q (ok=%v)", body, key, again, key2, ok)
		}
	})
}
