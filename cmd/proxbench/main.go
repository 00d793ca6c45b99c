// Command proxbench reproduces the paper's evaluation artefacts: every
// table, figure and quantitative claim indexed in DESIGN.md §4 /
// EXPERIMENTS.md. Run it with no flags for the full suite, or select a
// single experiment:
//
//	proxbench -exp rounds13          # E1 (structural)
//	proxbench -exp error13 -trials 4000
//	proxbench -exp comm -kappa 4
//	proxbench -list
//
// Performance numbers (decisions per second, latency, bytes and
// allocation per decision) come from cmd/proxperf, not from here.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"proxcensus/internal/harness"
)

type experiment struct {
	name string
	desc string
	run  func(cfg config) (*harness.Table, error)
}

type config struct {
	trials int
	kappa  int
}

func experiments() []experiment {
	return []experiment{
		{"rounds13", "E1: round budgets t<n/3 (kappa+1 vs 2*kappa)", func(cfg config) (*harness.Table, error) {
			return harness.ExperimentRoundsThird([]int{5, 10, 20, 30, 40, 60, 80}), nil
		}},
		{"rounds12", "E2: round budgets t<n/2 (3*kappa/2 vs 2*kappa)", func(cfg config) (*harness.Table, error) {
			return harness.ExperimentRoundsHalf([]int{5, 10, 20, 30, 40, 60, 80}), nil
		}},
		{"error13", "E1: measured error vs bound, one-shot t<n/3, worst-case adversary", func(cfg config) (*harness.Table, error) {
			return harness.ExperimentErrorThird(1, []int{1, 2, 3, 4, 5}, cfg.trials)
		}},
		{"error12", "E2: measured error vs bound, iterated Prox_5 t<n/2, worst-case adversary", func(cfg config) (*harness.Table, error) {
			return harness.ExperimentErrorHalf(1, []int{2, 4, 6, 8}, cfg.trials)
		}},
		{"comm", "E3: signatures sent vs n (ours n^2 vs MV-PKI n^3)", func(cfg config) (*harness.Table, error) {
			res, err := harness.ExperimentCommScaling([]int{9, 15, 21, 31, 41, 51, 65}, cfg.kappa)
			if err != nil {
				return nil, err
			}
			return res.Table, nil
		}},
		{"iterprob", "E4: per-iteration failure probability vs 1/(s-1)", func(cfg config) (*harness.Table, error) {
			return harness.ExperimentIterationFailure(cfg.trials)
		}},
		{"slots", "E5: Proxcensus slots by round budget, all four families", func(cfg config) (*harness.Table, error) {
			return harness.ExperimentSlotGrowth(10), nil
		}},
		{"multival", "E6: multivalued overhead (+2 / +3 rounds)", func(cfg config) (*harness.Table, error) {
			return harness.ExperimentMultivalued([]int{5, 10, 20, 30}, 20)
		}},
		{"proxcast", "E7: proxcast grades vs contradiction-release round", func(cfg config) (*harness.Table, error) {
			return harness.ExperimentProxcast(6, 2, 9)
		}},
		{"payload", "E9: payload dissemination cost, bytes on wire per decided byte at n in {16,64}", func(cfg config) (*harness.Table, error) {
			trials := cfg.trials / 100
			if trials < 3 {
				trials = 3
			}
			return harness.ExperimentPayloadDissemination([]int{16, 64}, []int{1024, 4096}, cfg.kappa, trials)
		}},
		{"slotchoice", "A1: slot-count ablation for the iterated t<n/2 protocol (footnote 6)", func(cfg config) (*harness.Table, error) {
			return harness.ExperimentSlotChoice(cfg.kappa * 10), nil
		}},
		{"coinpar", "A2: coin parallelism ablation (3 vs 4 rounds/iteration)", func(cfg config) (*harness.Table, error) {
			return harness.ExperimentCoinParallelism(1, 4, cfg.trials)
		}},
		{"rushing", "A3: rushing ablation (attack power without the rushing view)", func(cfg config) (*harness.Table, error) {
			return harness.ExperimentRushing(cfg.trials)
		}},
		{"termination", "E8: Las Vegas vs fixed-round termination (expected rounds, staggered halts)", func(cfg config) (*harness.Table, error) {
			return harness.ExperimentTermination(cfg.trials)
		}},
	}
}

func main() {
	var (
		expName = flag.String("exp", "all", "experiment to run (see -list)")
		trials  = flag.Int("trials", 2000, "trials per statistical experiment")
		kappa   = flag.Int("kappa", 3, "security parameter for metered experiments")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")
		outDir  = flag.String("out", "", "also write each table to <dir>/<name>.txt and .csv")
		list    = flag.Bool("list", false, "list experiments and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-12s %s\n", e.name, e.desc)
		}
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proxbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "proxbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "proxbench: memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "proxbench: memprofile: %v\n", err)
			}
			_ = f.Close()
		}()
	}

	cfg := config{trials: *trials, kappa: *kappa}
	ran := 0
	for _, e := range exps {
		if *expName != "all" && *expName != e.name {
			continue
		}
		table, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proxbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		var renderErr error
		if *csv {
			renderErr = table.CSV(os.Stdout)
		} else {
			renderErr = table.Render(os.Stdout)
		}
		if renderErr != nil {
			fmt.Fprintf(os.Stderr, "proxbench: render %s: %v\n", e.name, renderErr)
			os.Exit(1)
		}
		if *outDir != "" {
			if err := writeFiles(*outDir, e.name, table); err != nil {
				fmt.Fprintf(os.Stderr, "proxbench: write %s: %v\n", e.name, err)
				os.Exit(1)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "proxbench: unknown experiment %q (use -list)\n", *expName)
		os.Exit(1)
	}
}

// writeFiles stores a table under dir as both aligned text and CSV.
func writeFiles(dir, name string, table *harness.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	txt, err := os.Create(filepath.Join(dir, name+".txt"))
	if err != nil {
		return err
	}
	if err := table.Render(txt); err != nil {
		_ = txt.Close()
		return err
	}
	if err := txt.Close(); err != nil {
		return err
	}
	csvFile, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	if err := table.CSV(csvFile); err != nil {
		_ = csvFile.Close()
		return err
	}
	return csvFile.Close()
}
