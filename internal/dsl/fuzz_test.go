package dsl

import (
	"testing"

	"repro/internal/exec"
)

// FuzzDSLParse feeds arbitrary source through Parse. Parse must never
// panic; every definition it returns must validate, and its executable
// realization must carry one term per access of its shape, reference only
// existing buffers and reach exactly as far as the shape does.
func FuzzDSLParse(f *testing.F) {
	f.Add(laplacianSrc)
	f.Add("stencil d {\n dims 2\n buffers 3\n point (1,0,0) 0.5 buffer 2\n point (-1,0,0) -0.5\n}\n")
	f.Add("stencil tricubic {\n buffers 3\n point (2,2,2) 1\n point (2,2,2) 1\n}\nstencil b {\n dims 3\n point ( -3 , 0 ,1 ) 1e300\n}\n")
	f.Add("stencil x {\n point (0,0,0) 1 buffer\n}\n")
	f.Add("stencil x {\n type float\n point (1,2 1\n}")
	f.Fuzz(func(t *testing.T, src string) {
		defs, err := ParseString(src)
		if err != nil {
			return
		}
		for _, d := range defs {
			if err := d.Validate(); err != nil {
				t.Fatalf("Parse returned an invalid definition: %v", err)
			}
			sk := d.Kernel()
			k := exec.Executable(sk)
			if len(k.Terms) != sk.Shape.TotalAccesses() {
				t.Fatalf("%s: %d terms for %d accesses", d.Name, len(k.Terms), sk.Shape.TotalAccesses())
			}
			for _, term := range k.Terms {
				if term.Buffer < 0 || term.Buffer >= k.Buffers {
					t.Fatalf("%s: term reads buffer %d of %d", d.Name, term.Buffer, k.Buffers)
				}
			}
			if got, want := k.MaxOffset(), sk.Shape.MaxOffset(); got != want {
				t.Fatalf("%s: executable reaches %d, shape %d", d.Name, got, want)
			}
		}
	})
}
