// Search comparison: iterative compilation vs ordinal regression on one
// stencil — a miniature of the paper's Fig. 5.
//
// Four search baselines (generational GA, differential evolution, evolution
// strategy, steady-state GA) tune the gradient stencil for 1024 evaluations
// each, while the trained ranking model picks its configuration without any
// evaluation. The printout shows best runtime, the cost each method spent,
// and the hybrid mode that measures just the model's top-8.
//
//	go run ./examples/searchcompare
package main

import (
	"fmt"
	"log"

	stenciltune "repro"
)

func main() {
	// Memoize the simulator, so configurations proposed by several engines
	// are costed once. The cache changes no result, only how fast it
	// arrives.
	eval := stenciltune.MemoizedEvaluator(stenciltune.Simulator())
	q := stenciltune.Instance{
		Kernel: stenciltune.Gradient(),
		Size:   stenciltune.Size3D(256, 256, 256),
	}
	fmt.Printf("tuning %s\n\n", q.ID())

	fmt.Println("training ranking model (3840 points)...")
	model, report, err := stenciltune.Train(stenciltune.TrainOptions{TrainingPoints: 3840})
	if err != nil {
		log.Fatal(err)
	}
	tuner := model.Tuner()

	fmt.Printf("%-26s %14s %16s\n", "method", "best runtime", "evaluations spent")

	// Iterative search baselines, 1024 evaluations each, through the
	// memoized evaluator above.
	for _, engine := range stenciltune.SearchEngines() {
		res, err := stenciltune.RunSearch(engine, q, eval, 1024, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s %12.5f s %16d\n", engine.Name(), res.BestValue, res.Evaluations)
	}

	// Standalone ordinal regression: zero evaluations.
	best, elapsed, err := tuner.TunePredefined(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-26s %12.5f s %16d   (ranked 8640 configs in %v)\n",
		"ord. regression", eval.Runtime(q, best), 0, elapsed.Round(1000))

	// Hybrid: measure only the model's top-8.
	hbest, hval, err := tuner.HybridTune(q, 8, eval)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-26s %12.5f s %16d   (%v)\n", "ord. regression + top-8", hval, 8, hbest)

	fmt.Printf("\nmodel training amortizes across stencils: %v once, <ms per stencil after\n",
		report.TrainTime.Round(1e6))
}
