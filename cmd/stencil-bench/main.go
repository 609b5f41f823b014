// Command stencil-bench regenerates the tables and figures of the paper's
// evaluation section:
//
//	stencil-bench -exp table2   # Table II: training-phase costs
//	stencil-bench -exp table3   # Table III: benchmark inventory
//	stencil-bench -exp fig4     # Fig. 4: speedup vs GA-1024 base
//	stencil-bench -exp fig5     # Fig. 5: GFlop/s vs evaluations + time-to-solution
//	stencil-bench -exp fig6     # Fig. 6: per-instance Kendall tau
//	stencil-bench -exp fig7     # Fig. 7: tau distribution across TS sizes
//	stencil-bench -exp all
//
// Pass -csv DIR to additionally dump machine-readable results. Pass
// -cpuprofile / -memprofile to capture pprof profiles of a run (the
// intended way to inspect executor hot paths without editing code):
//
//	stencil-bench -exp table2 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/buildinfo"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/trainer"
)

// profiles owns the -cpuprofile/-memprofile lifecycle. Both files are
// created up front so a bad path fails before the (potentially long)
// experiment run, not after it. finish must run on every exit path —
// including log.Fatal, which skips defers — so fatalf routes through it.
type profiles struct {
	once    sync.Once
	cpuFile *os.File
	memFile *os.File
}

func (p *profiles) start(cpuPath, memPath string) {
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			log.Fatal(err)
		}
		p.memFile = f
	}
	if cpuPath == "" {
		return
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		log.Fatal(err)
	}
	p.cpuFile = f
}

func (p *profiles) finish() {
	p.once.Do(func() {
		if p.cpuFile != nil {
			pprof.StopCPUProfile()
			p.cpuFile.Close()
			fmt.Printf("wrote %s\n", p.cpuFile.Name())
		}
		if p.memFile != nil {
			defer p.memFile.Close()
			runtime.GC() // flush recently freed objects out of the profile
			if err := pprof.WriteHeapProfile(p.memFile); err != nil {
				log.Print(err)
				return
			}
			fmt.Printf("wrote %s\n", p.memFile.Name())
		}
	})
}

func (p *profiles) fatalf(format string, args ...any) {
	p.finish()
	log.Fatalf(format, args...)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stencil-bench: ")

	exp := flag.String("exp", "all", "experiment: table1, table2, table3, fig4, fig5, fig6, fig7 or all")
	seed := flag.Int64("seed", 1, "random seed (same seed reproduces the report)")
	budget := flag.Int("budget", 1024, "search evaluation budget (the paper uses 1024)")
	workers := flag.Int("workers", -1, "concurrent training-set generation workers (-1 = all cores, 1 = sequential); the report is identical for any value")
	csvDir := flag.String("csv", "", "directory to write CSV result files (empty = none)")
	htmlPath := flag.String("html", "", "write a standalone HTML report with SVG charts (requires -exp all)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC, at exit) to this file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Read())
		return
	}

	var prof profiles
	prof.start(*cpuProfile, *memProfile)
	defer prof.finish()

	var htmlData report.Data

	h := bench.New(perfmodel.New(machine.XeonE52680v3()), *seed)
	defer h.Close()
	h.Budget = *budget
	h.Workers = *workers
	// Final configurations are re-measured with an independent noise
	// stream, as the paper's reported speedups are fresh measurements.
	validator := perfmodel.New(machine.XeonE52680v3())
	validator.Seed = 7777
	h.Validator = validator

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			prof.fatalf("%v", err)
		}
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			prof.fatalf("%s: %v", name, err)
		}
	}

	run("table1", func() error {
		fmt.Println(bench.RenderTable1(h.Table1()))
		return nil
	})

	run("table3", func() error {
		fmt.Println(bench.RenderTable3())
		return nil
	})

	run("table2", func() error {
		rows, err := h.Table2(trainer.Table2Sizes())
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTable2(rows))
		htmlData.Table2 = rows
		return writeCSV(*csvDir, "table2.csv", func(f *os.File) error {
			return bench.WriteTable2CSV(f, rows)
		})
	})

	run("fig4", func() error {
		rows, err := h.Fig4()
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFig4(rows, h.Fig4Sizes))
		htmlData.Fig4 = rows
		return writeCSV(*csvDir, "fig4.csv", func(f *os.File) error {
			return bench.WriteFig4CSV(f, rows, h.Fig4Sizes)
		})
	})

	run("fig5", func() error {
		series, err := h.Fig5(nil)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFig5(series, h.Fig4Sizes))
		htmlData.Fig5 = series
		return writeCSV(*csvDir, "fig5.csv", func(f *os.File) error {
			return bench.WriteFig5CSV(f, series)
		})
	})

	run("fig6", func() error {
		res, err := h.Fig6(nil)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFig6(res))
		htmlData.Fig6 = &res
		return writeCSV(*csvDir, "fig6.csv", func(f *os.File) error {
			return bench.WriteFig6CSV(f, res)
		})
	})

	run("fig7", func() error {
		rows, err := h.Fig7(nil)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFig7(rows))
		htmlData.Fig7 = rows
		return writeCSV(*csvDir, "fig7.csv", func(f *os.File) error {
			return bench.WriteFig7CSV(f, rows)
		})
	})

	switch *exp {
	case "all", "table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7":
	default:
		prof.fatalf("unknown experiment %q", *exp)
	}

	if *htmlPath != "" {
		htmlData.Fig4Sizes = h.Fig4Sizes
		htmlData.Generated = time.Now()
		htmlData.MachineTag = "simulated " + machine.XeonE52680v3().Name
		f, err := os.Create(*htmlPath)
		if err != nil {
			prof.fatalf("%v", err)
		}
		defer f.Close()
		if err := report.Write(f, htmlData); err != nil {
			prof.fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			prof.fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", *htmlPath)
	}
}

// writeCSV writes one CSV file into dir (no-op when dir is empty).
func writeCSV(dir, name string, write func(*os.File) error) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
