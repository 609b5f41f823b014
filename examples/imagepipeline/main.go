// Image pipeline: tune and run a blur → edge-detection pipeline for real.
//
// This example exercises the image-processing motivation of the paper's
// introduction (blur and edge are two of the Table III benchmarks): a
// trained model picks tuning vectors for both stages, and the built-in
// blocked multithreaded executor then runs the full pipeline on a synthetic
// image, comparing wall-clock time against an untuned sweep.
//
//	go run ./examples/imagepipeline
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	stenciltune "repro"
	"repro/internal/exec"
	"repro/internal/grid"
)

const (
	width  = 1024
	height = 768
)

func main() {
	// Train a compact model; for production use, train once with
	// stencil-train and load the saved model here.
	fmt.Println("training model...")
	model, _, err := stenciltune.Train(stenciltune.TrainOptions{TrainingPoints: 1920})
	if err != nil {
		log.Fatal(err)
	}
	tuner := model.Tuner()

	// Tune both pipeline stages.
	blurQ := stenciltune.Instance{Kernel: stenciltune.Blur(), Size: stenciltune.Size2D(width, height)}
	edgeQ := stenciltune.Instance{Kernel: stenciltune.Edge(), Size: stenciltune.Size2D(width, height)}
	blurT, _, err := tuner.TunePredefined(blurQ)
	if err != nil {
		log.Fatal(err)
	}
	edgeT, _, err := tuner.TunePredefined(edgeQ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blur tuned: %v\nedge tuned: %v\n", blurT, edgeT)

	// Build the image: a synthetic pattern with sharp structure so the
	// edge detector has something to find. Halo 2 covers both kernels.
	img := grid.New2D(width, height, 2)
	for y := -2; y < height+2; y++ {
		for x := -2; x < width+2; x++ {
			v := 0.0
			if (x/64+y/64)%2 == 0 { // checkerboard
				v = 1.0
			}
			v += 0.25 * math.Sin(float64(x)*0.08)
			img.Set(x, y, 0, v)
		}
	}
	blurred := grid.New2D(width, height, 2)
	edges := grid.New2D(width, height, 2)

	runner := exec.NewRunner()
	blurK := exec.Executable(blurQ.Kernel)
	edgeK := exec.Executable(edgeQ.Kernel)

	pipeline := func(bt, et stenciltune.TuningVector) time.Duration {
		start := time.Now()
		if err := runner.Run(blurK, blurred, []*grid.Grid[float64]{img}, bt); err != nil {
			log.Fatal(err)
		}
		// The blur output needs its halo refreshed before edge reads it;
		// for this demo the interior suffices since edge only reaches 1.
		if err := runner.Run(edgeK, edges, []*grid.Grid[float64]{blurred}, et); err != nil {
			log.Fatal(err)
		}
		return time.Since(start)
	}

	// Warm up, then time tuned vs untuned.
	untuned := stenciltune.TuningVector{Bx: 1024, By: 1024, Bz: 1, U: 0, C: 1}
	pipeline(blurT, edgeT)
	tuned := pipeline(blurT, edgeT)
	pipeline(untuned, untuned)
	plain := pipeline(untuned, untuned)

	fmt.Printf("\npipeline wall-clock on this machine (%dx%d):\n", width, height)
	fmt.Printf("  tuned:   %v\n", tuned)
	fmt.Printf("  untuned: %v\n", plain)
	fmt.Printf("  ratio:   %.2fx\n", float64(plain)/float64(tuned))

	// Sanity: edge response should be strongest at the checkerboard seams.
	var maxEdge float64
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			if v := math.Abs(edges.At(x, y, 0)); v > maxEdge {
				maxEdge = v
			}
		}
	}
	fmt.Printf("max |edge response| = %.3f (expect > 1 at seams)\n", maxEdge)
}
