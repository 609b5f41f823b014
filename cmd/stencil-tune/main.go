// Command stencil-tune is the standalone autotuner of Section V-C: it loads
// (or trains) a ranking model, ranks the predefined configuration set for a
// named benchmark stencil and input size, and reports the chosen tuning
// vector. With -topk it additionally measures the top-k candidates and picks
// the best (the paper's future-work hybrid mode).
//
// With -server it skips all local model work and asks a running
// stencil-serve instance instead, through the retrying client (per-attempt
// timeouts, capped backoff with jitter, Retry-After honored), so a fleet of
// tuners can share one trained model and its response cache.
//
// Usage:
//
//	stencil-tune -kernel laplacian -size 128x128x128 [-model models] [-topk 8]
//	stencil-tune -kernel laplacian -size 128x128x128 -server http://127.0.0.1:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	stenciltune "repro"
	"repro/internal/buildinfo"
	"repro/internal/client"
	"repro/internal/wire"
)

// tuneViaServer routes the tune through a stencil-serve instance via the
// retrying client. The request carries the same kernel spec the local path
// builds, so a DSL file is shipped inline and parsed by the same code.
func tuneViaServer(baseURL, clientID string, timeout time.Duration, req wire.TuneRequest, dims int) error {
	c, err := client.New(client.Config{BaseURL: baseURL, ClientID: clientID})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	reply, err := c.Tune(ctx, req)
	if err != nil {
		return err
	}
	resp := reply.Body
	fmt.Printf("%s: tuned by %s with model %q (cache %s, %d attempts)\n",
		resp.Instance, baseURL, resp.Model, reply.Cache, c.Attempts())
	fmt.Printf("ranked %d configurations in %v\n",
		resp.RankedCandidates, time.Duration(resp.RankMicros)*time.Microsecond)
	fmt.Printf("top-ranked tuning: %v\n", resp.Best.Tuning(dims))
	if h := resp.Hybrid; h != nil {
		fmt.Printf("hybrid top-%d tuning (%s): %v (%.6f s)\n", h.TopK, h.Mode, h.Best.Tuning(dims), h.BestValue)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stencil-tune: ")

	kernelName := flag.String("kernel", "laplacian", "benchmark kernel name (Table III): blur, edge, game-of-life, wave-1, tricubic, divergence, gradient, laplacian, laplacian6")
	dslPath := flag.String("dsl", "", "tune a custom stencil from a DSL file instead of a named benchmark (first definition, or select with -kernel)")
	sizeStr := flag.String("size", "128x128x128", "grid size, e.g. 1024x1024 or 128x128x128")
	modelPath := flag.String("model", "", "trained model: a store directory written by stencil-train -save (empty = train a fresh 3840-point model)")
	points := flag.Int("points", 3840, "training points when training fresh")
	seed := flag.Int64("seed", 1, "seed for fresh training")
	topk := flag.Int("topk", 0, "hybrid mode: additionally evaluate the top-k ranked candidates and pick the measured best")
	mode := flag.String("mode", "sim", "evaluation substrate for -topk and reporting: sim or measure")
	workers := flag.Int("workers", -1, "concurrent training-set generation workers for fresh training (-1 = all cores, 1 = sequential); the model is identical for any value")
	serverURL := flag.String("server", "", "tune through a running stencil-serve instance at this base URL instead of locally; -model then names a server-side model (empty = server default), and -points/-seed/-workers are ignored")
	clientID := flag.String("client-id", "", "stable identity sent as X-Client-ID for the server's per-client rate limiter (default: the remote address)")
	serverTimeout := flag.Duration("server-timeout", 2*time.Minute, "overall deadline for the -server call, retries included")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Read())
		return
	}

	spec := wire.Named(*kernelName)
	if *dslPath != "" {
		src, err := os.ReadFile(*dslPath)
		if err != nil {
			log.Fatal(err)
		}
		spec.DSL = string(src)
	}
	in := wire.Instance{Kernel: spec, Size: *sizeStr}
	q, err := in.Build()
	if err != nil {
		log.Fatal(err)
	}

	if *serverURL != "" {
		in.Model = *modelPath
		req := wire.TuneRequest{Instance: in, TopK: *topk, Mode: *mode}
		if err := tuneViaServer(*serverURL, *clientID, *serverTimeout, req, q.Kernel.Dims()); err != nil {
			log.Fatal(err)
		}
		return
	}

	var model *stenciltune.Model
	if *modelPath != "" {
		model, err = stenciltune.LoadModel(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded model from %s\n", *modelPath)
	} else {
		fmt.Printf("training fresh model (%d points)...\n", *points)
		model, _, err = stenciltune.Train(stenciltune.TrainOptions{
			TrainingPoints: *points, Seed: *seed, Workers: *workers,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	var eval stenciltune.Evaluator
	switch *mode {
	case "sim":
		eval = stenciltune.Simulator()
	case "measure":
		// Measured evaluators own a worker pool that must be released on
		// exit.
		eval = stenciltune.Measured()
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	defer stenciltune.CloseEvaluator(eval)

	tuner := model.Tuner()
	best, elapsed, err := tuner.TunePredefined(q)
	if err != nil {
		log.Fatal(err)
	}
	nCands := len(stenciltune.PredefinedCandidates(q.Kernel.Dims()))
	fmt.Printf("%s: ranked %d configurations in %v\n", q.ID(), nCands, elapsed.Round(1000))
	fmt.Printf("top-ranked tuning: %v\n", best)
	fmt.Printf("evaluated runtime (%s): %.6f s\n", *mode, eval.Runtime(q, best))

	if *topk > 0 {
		hbest, hval, err := tuner.HybridTune(q, *topk, eval)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("hybrid top-%d tuning: %v (%.6f s, %d measurements)\n",
			*topk, hbest, hval, *topk)
	}
}
