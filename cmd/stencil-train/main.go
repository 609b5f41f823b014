// Command stencil-train builds a training set per Section V-B of the paper
// (60 generated stencil codes, 200 instances, random tuning vectors), trains
// the ordinal-regression ranking model and saves it as an artifact of a
// model store directory: the format stencil-serve -models, stencil-tune
// -model and stencil-inspect -model load.
//
// Usage:
//
//	stencil-train -points 3840 -seed 1 -save models [-name default] [-mode sim|measure]
package main

import (
	"flag"
	"fmt"
	"log"

	stenciltune "repro"
	"repro/internal/buildinfo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stencil-train: ")

	points := flag.Int("points", 3840, "training-set size (Table II uses 960..32000)")
	seed := flag.Int64("seed", 1, "random seed for reproducible training")
	saveDir := flag.String("save", "models", "model store directory to save into (versioned format with provenance; what stencil-serve -models and stencil-tune -model load)")
	name := flag.String("name", "default", "artifact name within the -save store")
	mode := flag.String("mode", "sim", "evaluation substrate: sim (deterministic Xeon model) or measure (real timed execution)")
	cParam := flag.Float64("c", 0, "override the ranking SVM's per-pair slack cost C (0 = default)")
	workers := flag.Int("workers", -1, "concurrent training-set generation workers (-1 = all cores, 1 = sequential); the trained model is identical for any value")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Read())
		return
	}

	opt := stenciltune.TrainOptions{
		TrainingPoints: *points,
		Seed:           *seed,
		C:              *cParam,
		Workers:        *workers,
	}
	switch *mode {
	case "sim":
		opt.Mode = stenciltune.Simulate
	case "measure":
		opt.Mode = stenciltune.Measure
	default:
		log.Fatalf("unknown mode %q (want sim or measure)", *mode)
	}

	fmt.Printf("generating %d training points (mode=%s, seed=%d)...\n", *points, *mode, *seed)
	model, report, err := stenciltune.Train(opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d points, %d preference pairs in %v\n",
		report.TrainingPoints, report.Pairs, report.TrainTime.Round(1e6))
	fmt.Printf("accounted testbed cost: compile %v, execution %v\n",
		report.SimulatedCompileTime.Round(1e9), report.SimulatedExecTime.Round(1e9))

	if err := stenciltune.SaveModel(*saveDir, *name, model); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model artifact %q saved to store %s (serve with: stencil-serve -models %s)\n",
		*name, *saveDir, *saveDir)
}
