package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
	"repro/internal/store"
	"repro/internal/svmrank"
	"repro/internal/trainer"
	"repro/internal/tunespace"
)

// trainingPoints is the paper's training-set size, and modelSeed the
// training seed stencil-train uses by default. The served model is the same
// on every workload seed, so the quality figures move only when the
// training pipeline changes: across seeds 1 to 5, retraining per seed moved
// the measure workload's top-1 share of the oracle between 0.75 and 0.90.
const (
	trainingPoints = 3840
	modelSeed      = 1
)

// countingEval wraps the simulator to count the evaluations dataset.Generate
// makes and the time spent inside them.
type countingEval struct {
	inner dataset.Evaluator
	n, ns atomic.Int64
}

func (e *countingEval) Runtime(q stencil.Instance, t tunespace.Vector) float64 {
	start := time.Now()
	r := e.inner.Runtime(q, t)
	e.ns.Add(int64(time.Since(start)))
	e.n.Add(1)
	return r
}

// trained is the served model with what its training cost.
type trained struct {
	model    *svmrank.Model
	meta     store.Meta
	generate time.Duration
	fit      time.Duration
	evals    int64
	evalNs   int64
	pairs    int
}

// trainModel trains the served model at the paper's 3,840 points with the
// trainer's default configuration. It records spans
// for dataset.Generate and svmrank.Train when tr is non-nil.
func trainModel(seed int64, tr *tracer, parent int) (*trained, error) {
	eval := &countingEval{inner: perfmodel.New(machine.XeonE52680v3())}
	cfg := trainer.DefaultConfig(trainingPoints, seed)

	sp := tr.begin("dataset.Generate", parent, 0)
	start := time.Now()
	set, err := dataset.Generate(eval, cfg.Dataset)
	generate := time.Since(start)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("generating training set: %w", err)
	}

	sp = tr.begin("svmrank.Train", parent, 0)
	start = time.Now()
	model, stats, err := svmrank.Train(set.Data, cfg.SVM)
	fit := time.Since(start)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("training model: %w", err)
	}
	meta := store.Meta{
		FeatureDim:         feature.Dim,
		FeatureNames:       feature.Names(),
		TrainingPoints:     set.Len(),
		Seed:               seed,
		Mode:               "sim",
		Sampling:           cfg.Dataset.Sampling.String(),
		C:                  cfg.SVM.C,
		Epochs:             cfg.SVM.Epochs,
		PairStrategy:       cfg.SVM.Pairs.Strategy.String(),
		PairWindow:         cfg.SVM.Pairs.Window,
		Pairs:              stats.Pairs,
		DatasetFingerprint: set.Fingerprint(),
	}
	return &trained{
		model: model, meta: meta, generate: generate, fit: fit,
		evals: eval.n.Load(), evalNs: eval.ns.Load(), pairs: stats.Pairs,
	}, nil
}

// saveModel writes the model as the "default" artifact of a fresh store.
func saveModel(dir string, t *trained) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	return st.Save(&store.Artifact{Name: "default", Model: t.model, Meta: t.meta, Machine: machine.XeonE52680v3()})
}

// child is a stencil-serve process on a loopback port.
type child struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error

	stopOnce sync.Once
	stopErr  error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches stencil-serve on the model store. Its access log goes
// to logPath, never to an undrained pipe.
func startServer(bin, modelDir, logPath string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-models", modelDir, "-addr", addr, "-log-format", "json")
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { c.done <- cmd.Wait() }()
	return c, nil
}

// waitReady polls /readyz until the server answers 200.
func (c *child) waitReady(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-c.done:
			c.done <- err
			return fmt.Errorf("server exited before ready: %v (log %s)", err, c.log.Name())
		default:
		}
		resp, err := client.Get(c.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not ready after %v (log %s)", timeout, c.log.Name())
}

// stop sends SIGTERM, waits for the drain, and kills the server if it has
// not exited within ten seconds. It always waits for the process to end, and
// later calls return the first call's result.
func (c *child) stop() error {
	c.stopOnce.Do(func() {
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case c.stopErr = <-c.done:
		case <-time.After(10 * time.Second):
			_ = c.cmd.Process.Kill()
			c.stopErr = <-c.done
		}
		// A SIGTERM that lands before the server installs its signal
		// handler ends it without a drain; nothing is in flight then.
		var exitErr *exec.ExitError
		if errors.As(c.stopErr, &exitErr) {
			if ws, ok := exitErr.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				c.stopErr = nil
			}
		}
		c.log.Close()
	})
	return c.stopErr
}

// userHZ is the kernel's clock-tick rate for /proc CPU times, fixed at 100 on
// Linux user ABIs.
const userHZ = 100

// procCPU returns the user plus system CPU time of a process, all threads.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// resetPeakRSS restarts a process's peak resident set (VmHWM) from its
// current resident set.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// procPeakRSSMB returns a process's peak resident set (VmHWM) in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostSteal returns the CPU time the hypervisor gave to other guests while
// this machine's CPUs wanted to run, summed over CPUs (0 where /proc/stat
// has no steal column).
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupResult is the state a timed phase starts from.
type setupResult struct {
	trained *trained
	server  *child
	primed  [][]byte // hot: the primed response body per catalog entry
	times   []time.Duration
}

// setupRepeats is how many times a run pays the full set-up; setup_s is
// their median, and only the last server is kept for the timed phase.
const setupRepeats = 3

// setUp trains, saves, starts and (for hot) primes a server setupRepeats
// times, timing each set-up from the first training step to the last primed
// response.
func setUp(ctx context.Context, o options, client *http.Client, cat []request) (*setupResult, error) {
	res := &setupResult{}
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		t, err := trainModel(modelSeed, nil, -1)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(o.work, fmt.Sprintf("store-%d", i))
		if err := saveModel(dir, t); err != nil {
			return nil, fmt.Errorf("saving model: %w", err)
		}
		c, err := startServer(o.serverBin, dir, filepath.Join(o.work, fmt.Sprintf("serve-%d.log", i)))
		if err != nil {
			return nil, err
		}
		if err := c.waitReady(client, 30*time.Second); err != nil {
			c.stop()
			return nil, err
		}
		var primed [][]byte
		if o.workload == "hot" {
			if primed, err = prime(ctx, client, c.base, cat); err != nil {
				c.stop()
				return nil, err
			}
		}
		res.times = append(res.times, time.Since(start))
		if i < setupRepeats-1 {
			if err := c.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server: %w", err)
			}
			continue
		}
		res.trained, res.server, res.primed = t, c, primed
	}
	return res, nil
}
