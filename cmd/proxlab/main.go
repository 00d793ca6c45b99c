// Command proxlab runs every experiment of the repository. One flag
// names what to run:
//
//	proxlab -list                                # the paper tables by id
//	proxlab -exp all -out results                # regenerate results/*.{txt,csv}
//	proxlab -exp iterprob -trials 5000 -gate     # E4, gated on its 1/(s-1) bounds
//	proxlab -spec experiments/specs/smoke-expand.json -gate   # a TCP fault grid
//	proxlab -curve results/experiments/smoke-expand.jsonl     # its curve again
//	proxlab -conform all -exhaustive             # every family + the expand model check
//	proxlab -conform oneshot -replay 'v=0:cr=1:...' -inputs 0111
//	proxlab -run oneshot -n 7 -t 2 -kappa 8      # one traced BA execution
//	proxlab -run half -n 5 -t 2 -kappa 6 -adversary worstcase -v
//	proxlab -run fm -n 4 -t 1 -kappa 4 -tcp      # the same over TCP
//	proxlab -run proxcast -s 9 -adversary release -release 5
//	proxlab -run proxcast -s 5 -faults 'byz:5@equivocate;crash:2@3'
//
// -run executes one protocol: a BA family (oneshot, fm, half, mv) or
// the s-slot Proxcast of Appendix A, whose -adversary strategies are
// the dealer's (honest, equivocate, withhold, release). -tcp, or a
// -faults schedule (the grammar of internal/chaos), runs it over the
// TCP transport; simulator adversaries stay on the simulator, and
// Byzantine nodes over TCP are byz:NODE@ROLE entries in -faults.
//
// -gate exits 1 unless the run met its claim: with -exp, every row that
// carries a bound passes the exact binomial test at -alpha; with -spec
// and -curve, every faults=0 trial decided. -conform always exits 1 on a
// conformance failure. -run prints its verdict and exits 0. Errors, and
// flags the chosen mode or protocol does not read, exit 2. Performance
// numbers come from cmd/proxperf, not from here.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"proxcensus/internal/conformance"
	"proxcensus/internal/experiment"
)

// readBy names, for each flag only some modes read, those modes. The
// profile flags work in every mode; -replay turns -conform into the
// replay mode, and with -run the protocol stands in for the mode.
var readBy = map[string]string{
	"trials": "exp", "kappa": "exp conform replay " + baProtocols, "alpha": "exp conform",
	"gate": "exp spec curve conform replay", "out": "exp spec", "q": "spec",
	"strategies": "conform", "seed": "conform " + baProtocols, "exhaustive": "conform",
	"inputs": "replay " + runProtocols, "coin": baProtocols, "v": baProtocols,
	"n": runProtocols, "t": runProtocols, "adversary": runProtocols,
	"tcp": runProtocols, "faults": runProtocols, "round-timeout": runProtocols,
	"s": "proxcast", "release": "proxcast", "player-replaceable": "proxcast",
}

// claimError is a run that finished without meeting its claim: exit 1.
type claimError struct{ msg string }

func (e claimError) Error() string { return e.msg }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("proxlab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "", "render this paper table (see -list), or all")
		specPath   = fs.String("spec", "", "run the TCP sweep grid of this experiment spec (JSON)")
		curvePath  = fs.String("curve", "", "render the degradation curve of an existing JSONL artifact")
		conform    = fs.String("conform", "", "sweep these comma-separated protocol families for conformance, or all")
		strategies = fs.Int("strategies", 500, "-conform: distinct strategies per family")
		seed       = fs.Int64("seed", 0x5eed, "-conform: search seed, everything derives from it; -run: execution seed, default 1 there")
		alpha      = fs.Float64("alpha", 1e-4, "significance level of the bound checks (-conform, -exp -gate)")
		exhaustive = fs.Bool("exhaustive", false, "-conform: also run the exhaustive 2-round expand model check (~27k executions)")
		replay     = fs.String("replay", "", "-conform FAMILY: replay this StrategyID (needs -inputs)")
		inputs     = fs.String("inputs", "", "-replay, -run: input bits, one 0/1 digit per party (-run default: t+1 zeros, then ones); -run proxcast: the dealer's digit (default 1)")
		out        = fs.String("out", "", "-exp: also write each table to <dir>/<id>.txt and .csv; -spec: artifact directory (default results/experiments)")
		trials     = fs.Int("trials", 2000, "-exp: trials per sampled table")
		kappa      = fs.Int("kappa", 0, "security parameter (default 3 with -exp, 2 with -conform, 8 with -run)")
		gate       = fs.Bool("gate", false, "exit 1 unless the run met its claim (see the package doc)")
		quiet      = fs.Bool("q", false, "-spec: suppress per-trial progress lines")
		protocol   = fs.String("run", "", "execute one run of this protocol: "+strings.ReplaceAll(runProtocols, " ", " | "))
		n          = fs.Int("n", 0, "-run: number of parties (default 7, proxcast 6)")
		t          = fs.Int("t", 2, "-run: corruption budget")
		s          = fs.Int("s", 9, "-run proxcast: slot count (runs s-1 rounds)")
		adv        = fs.String("adversary", "", "-run: "+strings.ReplaceAll(baAdversaries, " ", " | ")+" (default passive); proxcast: "+strings.ReplaceAll(dealers, " ", " | ")+" (default honest)")
		coin       = fs.String("coin", "ideal", "-run: ideal | threshold")
		release    = fs.Int("release", 3, "-run proxcast -adversary release: the round the contradiction is released")
		pr         = fs.Bool("player-replaceable", false, "-run proxcast: enable the n-t forwarding quota (t<n/2 variant)")
		verbose    = fs.Bool("v", false, "-run: dump the payloads party 0 receives each round")
		tcp        = fs.Bool("tcp", false, "-run: execute over the TCP transport")
		faults     = fs.String("faults", "", "-run: chaos fault schedule to inject over TCP, e.g. 'crash:2@3;byz:5@garbage' (implies -tcp)")
		roundTO    = fs.Duration("round-timeout", 0, "-run: per-round deadline over TCP (default 30s, proxcast 1s)")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	fs.Bool("list", false, "list the paper tables and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	mode, err := pickMode(fs, *replay != "", *protocol)
	var cpuFile *os.File
	if err == nil && *cpuProf != "" {
		if cpuFile, err = os.Create(*cpuProf); err == nil {
			err = pprof.StartCPUProfile(cpuFile)
		}
	}
	if err == nil {
		switch mode {
		case "list":
			for _, pt := range experiment.PaperTables() {
				fmt.Fprintf(stdout, "%-12s %s\n", pt.ID, pt.Desc)
			}
		case "exp":
			err = runTables(stdout, *exp, *trials, orDefault(*kappa, 3), *gate, *alpha, *out)
		case "spec":
			err = runSpec(stdout, stderr, *specPath, orDefault(*out, "results/experiments"), *gate, *quiet)
		case "curve":
			err = runCurve(stdout, stderr, *curvePath, *gate)
		case "replay":
			err = runReplay(stdout, *conform, orDefault(*kappa, 2), *inputs, *replay)
		case "conform":
			err = runConform(stdout, *conform, orDefault(*kappa, 2), *strategies, *seed, *alpha, *exhaustive)
		case "run":
			x := execution{
				protocol: *protocol, n: *n, t: *t, kappa: *kappa, s: *s, release: *release,
				inputs: *inputs, adversary: *adv, coin: *coin, faults: *faults, seed: 1,
				verbose: *verbose, tcp: *tcp || *faults != "", replaceable: *pr, roundTimeout: *roundTO,
			}
			fs.Visit(func(f *flag.Flag) {
				if f.Name == "seed" {
					x.seed = *seed
				}
			})
			err = x.run(stdout)
		}
	}
	if cpuFile != nil {
		pprof.StopCPUProfile()
		err = errors.Join(err, cpuFile.Close())
	}
	if *memProf != "" {
		err = errors.Join(err, writeFile(*memProf, func(w io.Writer) error { runtime.GC(); return pprof.WriteHeapProfile(w) }))
	}
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "proxlab: %v\n", err)
	if claim := (claimError{}); errors.As(err, &claim) {
		return 1
	}
	return 2
}

// pickMode names the one mode the set flags select and refuses any set
// flag that mode, or with -run the protocol, does not read.
func pickMode(fs *flag.FlagSet, replay bool, protocol string) (string, error) {
	var modes []string
	fs.Visit(func(f *flag.Flag) {
		if strings.Contains(" exp list spec curve conform run ", " "+f.Name+" ") {
			modes = append(modes, f.Name)
		}
	})
	if len(modes) != 1 {
		return "", fmt.Errorf("name one of -exp, -list, -spec, -curve, -conform or -run (got %d)", len(modes))
	}
	mode := modes[0]
	if mode == "conform" && replay {
		mode = "replay"
	}
	reader, label := mode, mode
	if mode == "run" {
		if !strings.Contains(" "+runProtocols+" ", " "+protocol+" ") {
			return "", fmt.Errorf("unknown -run protocol %q (know %s)", protocol, strings.ReplaceAll(runProtocols, " ", ", "))
		}
		reader, label = protocol, "run "+protocol
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if modes, ok := readBy[f.Name]; ok && !strings.Contains(" "+modes+" ", " "+reader+" ") {
			err = fmt.Errorf("-%s has no meaning with -%s", f.Name, label)
		}
	})
	return mode, err
}

func orDefault[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// writeFile creates path and fills it with render.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(render(f), f.Close())
}

// runTables renders the paper table id (or all of them), writes each to
// outDir when set, and with gate tests every row that carries a bound.
func runTables(stdout io.Writer, id string, trials, kappa int, gate bool, alpha float64, outDir string) error {
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	ran, tested := 0, 0
	var exceeded []string
	for _, pt := range experiment.PaperTables() {
		if id != "all" && id != pt.ID {
			continue
		}
		ran++
		table, err := pt.Run(trials, kappa)
		if err == nil {
			err = table.Render(stdout)
		}
		if err == nil && outDir != "" {
			err = writeFile(filepath.Join(outDir, pt.ID+".txt"), table.Render)
			if err == nil {
				err = writeFile(filepath.Join(outDir, pt.ID+".csv"), table.CSV)
			}
		}
		if err == nil && gate {
			var n int
			var over []string
			n, over, err = table.Gate(stdout, pt.ID, alpha)
			tested += n
			for _, row := range over {
				exceeded = append(exceeded, pt.ID+": "+row)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", pt.ID, err)
		}
	}
	switch {
	case ran == 0:
		return fmt.Errorf("unknown experiment %q (use -list)", id)
	case !gate:
		return nil
	case tested == 0:
		return claimError{fmt.Sprintf("gate: no row of -exp %s carries a bound", id)}
	case len(exceeded) > 0:
		return claimError{fmt.Sprintf("gate: %d/%d rows exceed their bound: %s", len(exceeded), tested, strings.Join(exceeded, "; "))}
	}
	_, err := fmt.Fprintf(stdout, "gate: all %d bounded rows within their bounds\n", tested)
	return err
}

// runSpec runs a spec's grid, streaming each classified trial into the
// JSONL artifact under outDir, then writes and prints the curve.
func runSpec(stdout, stderr io.Writer, specPath, outDir string, gate, quiet bool) error {
	f, err := os.Open(specPath)
	if err != nil {
		return err
	}
	spec, err := experiment.ParseSpec(f)
	_ = f.Close()
	if err != nil {
		return err
	}
	trials, err := spec.Trials()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	network := spec.Network
	if network == "" {
		network = "none"
	}
	fmt.Fprintf(stdout, "proxlab: %s: family=%s n=%d t=%d rounds=%d trials=%d network=%s\n",
		spec.Name, spec.Family, spec.N, spec.T, spec.ProtocolRounds(), len(trials), network)
	fmt.Fprintf(stdout, "timeouts: round=%s trial=%s (every trial watchdog-wrapped)\n",
		spec.RoundTimeout(), spec.TrialTimeout())

	// Stream each result the moment it classifies: a killed sweep
	// still leaves a parseable partial artifact, and a failed write
	// (a full disk, say) stops the sweep instead of archiving less
	// than it reports.
	r := &experiment.Runner{Spec: spec}
	if !quiet {
		r.Logf = func(format string, args ...any) { fmt.Fprintf(stdout, "  "+format+"\n", args...) }
	}
	var results []experiment.TrialResult
	artifact := filepath.Join(outDir, spec.Name+".jsonl")
	if err := writeFile(artifact, func(w io.Writer) (err error) {
		enc := json.NewEncoder(w)
		r.Sink = func(tr experiment.TrialResult) error { return enc.Encode(tr) }
		results, err = r.Run()
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "archived %d trials to %s\n", len(results), artifact)

	cv, err := experiment.Curve(results)
	if err != nil {
		return err
	}
	render := func(w io.Writer) error { return experiment.WriteCurve(w, spec.Name, cv) }
	curveFile := filepath.Join(outDir, spec.Name+"-curve.txt")
	if err := errors.Join(render(stdout), writeFile(curveFile, render)); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "curve table written to %s\n", curveFile)
	if gate {
		return checkBaseline(stdout, stderr, results)
	}
	return nil
}

// runCurve re-analyzes an existing artifact, tolerating partial or
// truncated files.
func runCurve(stdout, stderr io.Writer, path string, gate bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	results, skipped, err := experiment.ReadJSONL(f)
	_ = f.Close()
	if err != nil {
		return err
	}
	if skipped > 0 {
		fmt.Fprintf(stderr, "proxlab: skipped %d malformed line(s) in %s\n", skipped, path)
	}
	if len(results) == 0 {
		return fmt.Errorf("%s holds no parseable trials", path)
	}
	cv, err := experiment.Curve(results)
	if err == nil {
		err = experiment.WriteCurve(stdout, filepath.Base(path), cv)
	}
	if err == nil && gate {
		err = checkBaseline(stdout, stderr, results)
	}
	return err
}

// checkBaseline enforces the zero-fault baseline: with no faults
// injected there is no excuse for anything but a decision.
func checkBaseline(stdout, stderr io.Writer, results []experiment.TrialResult) error {
	baseline, failed := 0, 0
	for _, tr := range results {
		if tr.Faults != 0 {
			continue
		}
		baseline++
		if tr.Outcome != experiment.OutcomeDecided {
			failed++
			fmt.Fprintf(stderr, "gate: trial %d seed=%d: %s (%s)\n", tr.Trial, tr.Seed, tr.Outcome, tr.Detail)
		}
	}
	if baseline == 0 {
		return claimError{"gate: no faults=0 trials in the sweep"}
	}
	if failed > 0 {
		return claimError{fmt.Sprintf("gate: %d/%d faults=0 trials did not decide", failed, baseline)}
	}
	_, err := fmt.Fprintf(stdout, "gate: all %d faults=0 trials decided\n", baseline)
	return err
}

// runConform sweeps the named families, or all of them.
func runConform(stdout io.Writer, families string, kappa, strategies int, seed int64, alpha float64, exhaustive bool) error {
	list := conformance.Families()
	if families != "all" {
		list = strings.Split(families, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
	}
	failed, err := experiment.Conform(stdout, list, kappa, strategies, seed, alpha, exhaustive)
	if err == nil && failed {
		err = claimError{"conformance failure"}
	}
	return err
}

// runReplay re-executes one StrategyID of one family.
func runReplay(stdout io.Writer, family string, kappa int, inputs, id string) error {
	if strings.Contains(family, ",") || family == "all" || inputs == "" {
		return fmt.Errorf("-replay needs one family (-conform FAMILY) and -inputs")
	}
	violated, err := experiment.Replay(stdout, family, kappa, inputs, id)
	if err == nil && violated {
		err = claimError{"replay: oracle violations"}
	}
	return err
}
