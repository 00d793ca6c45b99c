// Command proxconform runs the protocol conformance suite: adversary
// strategy search over every protocol family with the paper-property
// oracles, plus the statistical check of the 1/(s-1) per-iteration
// disagreement bound.
//
//	proxconform                             # sweep all families, default budget
//	proxconform -families oneshot,half      # a subset
//	proxconform -strategies 2000 -kappa 3   # a longer sweep
//	proxconform -exhaustive                 # exhaustive 2-round expand model check
//	proxconform -bounds -trials 5000        # statistical bound check only
//	proxconform -replay 'v=0:cr=1:...' -family oneshot -inputs 0111
//
// Every violation prints a VIOLATION line carrying the StrategyID that
// replays it; exit status is 1 when any conformance failure was found.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"proxcensus/internal/conformance"
)

func main() {
	families := flag.String("families", strings.Join(conformance.Families(), ","), "comma-separated protocol families to sweep")
	kappa := flag.Int("kappa", 2, "security parameter for the swept protocols")
	strategies := flag.Int("strategies", 500, "distinct strategies per family")
	seed := flag.Int64("seed", 0x5eed, "search seed; everything derives from it")
	alpha := flag.Float64("alpha", 1e-4, "significance level for the probabilistic-property checks")
	exhaustive := flag.Bool("exhaustive", false, "also run the exhaustive 2-round expand model check (~27k executions)")
	bounds := flag.Bool("bounds", false, "run the statistical disagreement-bound checks")
	trials := flag.Int("trials", 2000, "executions per statistical bound check")
	replay := flag.String("replay", "", "StrategyID to replay (requires -family and -inputs)")
	family := flag.String("family", "", "single family for -replay")
	inputs := flag.String("inputs", "", "input bits for -replay, one digit per party")
	flag.Parse()

	failed := false
	switch {
	case *replay != "":
		failed = runReplay(*family, *kappa, *inputs, *replay)
	default:
		for _, f := range strings.Split(*families, ",") {
			failed = runSweep(strings.TrimSpace(f), *kappa, *strategies, *seed, *alpha) || failed
		}
		if *exhaustive {
			failed = runExhaustive() || failed
		}
		if *bounds {
			failed = runBounds(*kappa, *trials, *alpha) || failed
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runSweep sweeps one family and prints its report. Returns true on
// conformance failure.
func runSweep(family string, kappa, strategies int, seed int64, alpha float64) bool {
	report, err := conformance.SweepFamily(family, kappa, strategies, seed, alpha)
	if err != nil {
		fail(err)
	}
	fmt.Println(report.String())
	for _, v := range report.Stat {
		fmt.Printf("  expected-rate %s\n", v)
	}
	return !report.OK()
}

// runExhaustive model-checks the 2-round expansion exhaustively.
func runExhaustive() bool {
	tg, sp := conformance.ExpandTarget(4, 1, 2)
	ex := &conformance.Explorer{Target: tg, Space: sp, Oracles: conformance.ProxOracles()}
	runs, violations, err := ex.Exhaustive(nil)
	if err != nil {
		fail(err)
	}
	fmt.Printf("exhaustive expand n=4 t=1 rounds=2: %d executions, %d violations\n", runs, len(violations))
	for _, v := range violations {
		fmt.Printf("  %s\n", v)
	}
	return len(violations) > 0
}

// runBounds runs the statistical disagreement-bound checks.
func runBounds(kappa, trials int, alpha float64) bool {
	failed := false
	oneshot, err := conformance.OneShotBoundSample(4, 1, kappa, trials)
	if err != nil {
		fail(err)
	}
	half, err := conformance.HalfBoundSample(3, 1, 2, trials) // one Prox_5 iteration
	if err != nil {
		fail(err)
	}
	for _, sample := range []*conformance.Outcome{oneshot, half} {
		report, err := sample.Check(alpha)
		if err != nil {
			fail(err)
		}
		fmt.Printf("bound %s: %s\n", sample.Name, report)
		failed = failed || !report.Consistent
	}
	return failed
}

// runReplay re-executes one strategy from its printed ID.
func runReplay(family string, kappa int, inputBits, id string) bool {
	if family == "" || inputBits == "" {
		fail(fmt.Errorf("-replay requires -family and -inputs"))
	}
	var tg conformance.Target
	var sp conformance.Space
	if family == "expand" {
		tg, sp = conformance.ExpandTarget(4, 1, 2)
	} else {
		var err error
		tg, sp, err = conformance.FamilyTarget(family, kappa)
		if err != nil {
			fail(err)
		}
	}
	inputs := make([]int, 0, len(inputBits))
	for _, c := range inputBits {
		if c != '0' && c != '1' {
			fail(fmt.Errorf("inputs must be 0/1 digits, got %q", inputBits))
		}
		inputs = append(inputs, int(c-'0'))
	}
	if len(inputs) != tg.N {
		fail(fmt.Errorf("family %s has n=%d, got %d input digits", family, tg.N, len(inputs)))
	}
	oracles := conformance.BAOracles()
	if family == "expand" {
		oracles = conformance.ProxOracles()
	}
	ex := &conformance.Explorer{Target: tg, Space: sp, Oracles: oracles}
	violations, err := ex.Replay(inputs, id)
	if err != nil {
		fail(err)
	}
	if len(violations) == 0 {
		fmt.Println("replay clean: no oracle violations")
		return false
	}
	for _, v := range violations {
		fmt.Println(v.String())
	}
	return true
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "proxconform:", err)
	os.Exit(2)
}
