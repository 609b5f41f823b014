// Command stencil-inspect explains what the system is doing: it dumps the
// performance model's cost breakdown for one execution, and the top learned
// weights of a trained ranking model with human-readable feature names.
//
// Usage:
//
//	stencil-inspect -kernel laplacian -size 128x128x128 -tuning 32,16,4,4,2
//	stencil-inspect -model models -top 20
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/feature"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/store"
	"repro/internal/tunespace"
	"repro/internal/wire"
)

func parseTuning(s string) (tunespace.Vector, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 5 && len(parts) != 6 {
		return tunespace.Vector{}, fmt.Errorf("tuning %q must be bx,by,bz,u,c or bx,by,bz,u,c,k", s)
	}
	vals := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return tunespace.Vector{}, fmt.Errorf("bad tuning component %q", p)
		}
		vals[i] = v
	}
	tv := tunespace.Vector{Bx: vals[0], By: vals[1], Bz: vals[2], U: vals[3], C: vals[4], K: 1}
	if len(vals) == 6 {
		tv.K = vals[5]
	}
	return tv, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stencil-inspect: ")

	kernelName := flag.String("kernel", "", "benchmark kernel to cost-model (with -size and -tuning)")
	sizeStr := flag.String("size", "128x128x128", "grid size")
	tuningStr := flag.String("tuning", "32,16,4,4,2", "tuning vector bx,by,bz,u,c[,k]")
	modelPath := flag.String("model", "", "trained model to explain: a store directory written by stencil-train -save, or one of its artifact directories")
	top := flag.Int("top", 16, "how many weights to show per sign")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Read())
		return
	}

	if *kernelName == "" && *modelPath == "" {
		log.Fatal("pass -kernel (cost breakdown) and/or -model (weight inspection)")
	}

	if *kernelName != "" {
		if err := breakdown(*kernelName, *sizeStr, *tuningStr); err != nil {
			log.Fatal(err)
		}
	}
	if *modelPath != "" {
		if err := explain(*modelPath, *top); err != nil {
			log.Fatal(err)
		}
	}
}

// breakdown prints the performance-model cost decomposition.
func breakdown(kernelName, sizeStr, tuningStr string) error {
	q, err := (&wire.Instance{Kernel: wire.Named(kernelName), Size: sizeStr}).Build()
	if err != nil {
		return err
	}
	tv, err := parseTuning(tuningStr)
	if err != nil {
		return err
	}
	if err := tv.Validate(q.Kernel.Dims()); err != nil {
		return err
	}

	m := perfmodel.New(machine.XeonE52680v3())
	b := m.Evaluate(q, tv)
	fmt.Printf("%s with %v on %s\n\n", q.ID(), tv, m.M.Name)
	fmt.Printf("  tile points          %12.0f\n", b.TilePoints)
	fmt.Printf("  reuse factor         %12.2f   (input bytes re-read per sweep)\n", b.ReuseFactor)
	fmt.Printf("  halo ratio           %12.3f   (inter-tile footprint overhead)\n", b.HaloRatio)
	fmt.Printf("  traffic/point        %12.2f B\n", b.TrafficPerPoint)
	fmt.Printf("  bandwidth            %12.2f GB/s per core\n", b.BandwidthGBs)
	fmt.Printf("  memory time          %12.3f ns/point\n", b.MemNsPerPoint)
	fmt.Printf("  compute time         %12.3f ns/point (SIMD eff %.2f, unroll ×%.2f)\n",
		b.CompNsPerPoint, b.SIMDEfficiency, b.UnrollFactor)
	fmt.Printf("  loop overhead        %12.3f ns/point\n", b.OverheadNs)
	fmt.Printf("  TLB penalty          %12.2f\n", b.TLBPenalty)
	fmt.Printf("  tiles / groups       %8d / %d (chunk %d)\n", b.Tiles, b.Groups, tv.C)
	fmt.Printf("  parallelism          %12.2f of %d cores\n", b.Parallelism, m.M.Cores)
	fmt.Printf("  dispatch cost        %12.3f ms\n", b.DispatchNs/1e6)
	fmt.Printf("\n  runtime              %12.6f s\n", b.Seconds)
	fmt.Printf("  throughput           %12.2f GFlop/s\n", b.GFlops)
	return nil
}

// explain prints the strongest learned weights with feature names.
func explain(path string, top int) error {
	a, err := store.LoadPath(path)
	if err != nil {
		return err
	}
	model := a.Model
	type wf struct {
		idx int
		w   float64
	}
	var weights []wf
	for i, w := range model.W {
		if w != 0 {
			weights = append(weights, wf{i, w})
		}
	}
	sort.Slice(weights, func(a, b int) bool { return weights[a].w > weights[b].w })

	fmt.Printf("\nmodel %s: %d non-zero weights (C=%g); higher score = better predicted rank\n",
		path, len(weights), model.C)
	fmt.Printf("\nstrongest positive weights (configurations the model favours):\n")
	for i := 0; i < top && i < len(weights); i++ {
		fmt.Printf("  %-22s %+.4f\n", feature.Name(weights[i].idx), weights[i].w)
	}
	fmt.Printf("\nstrongest negative weights (configurations the model avoids):\n")
	for i := 0; i < top && i < len(weights); i++ {
		j := len(weights) - 1 - i
		if weights[j].w >= 0 {
			break
		}
		fmt.Printf("  %-22s %+.4f\n", feature.Name(weights[j].idx), weights[j].w)
	}
	return nil
}
