package experiment

import (
	"fmt"
	"io"
	"strings"

	"proxcensus/internal/conformance"
)

// Conform sweeps each family with `strategies` seeded guided-random
// adversary strategies under the paper-property oracles and, when
// exhaustive is set, model-checks the 2-round expansion exhaustively.
// It writes every report to w, also when a sweep fails to run; each
// violation line carries the StrategyID that Replay re-executes. It
// reports whether any conformance failure was found.
func Conform(w io.Writer, families []string, kappa, strategies int, seed int64, alpha float64, exhaustive bool) (failed bool, err error) {
	var b strings.Builder
	defer func() {
		if _, werr := io.WriteString(w, b.String()); err == nil {
			err = werr
		}
	}()
	for _, family := range families {
		report, err := conformance.SweepFamily(family, kappa, strategies, seed, alpha)
		if err != nil {
			return failed, err
		}
		fmt.Fprintln(&b, report.String())
		for _, v := range report.Stat {
			fmt.Fprintf(&b, "  expected-rate %s\n", v)
		}
		failed = failed || !report.OK()
	}
	if !exhaustive {
		return failed, nil
	}
	tg, sp := conformance.ExpandTarget(4, 1, 2)
	ex := &conformance.Explorer{Target: tg, Space: sp, Oracles: conformance.ProxOracles()}
	runs, violations, err := ex.Exhaustive(nil)
	if err != nil {
		return failed, err
	}
	fmt.Fprintf(&b, "exhaustive expand n=4 t=1 rounds=2: %d executions, %d violations\n", runs, len(violations))
	for _, v := range violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return failed || len(violations) > 0, nil
}

// Replay re-executes one strategy of family from its printed ID with
// the given input bits, one 0/1 digit per party, and writes each
// oracle violation to w. Family "expand" replays against the
// exhaustive check's 2-round expansion target. It reports whether the
// replay violated any oracle.
func Replay(w io.Writer, family string, kappa int, inputBits, id string) (violated bool, err error) {
	tg, sp := conformance.ExpandTarget(4, 1, 2)
	oracles := conformance.ProxOracles()
	if family != "expand" {
		oracles = conformance.BAOracles()
		if tg, sp, err = conformance.FamilyTarget(family, kappa); err != nil {
			return false, err
		}
	}
	inputs := make([]int, 0, len(inputBits))
	for _, c := range inputBits {
		if c != '0' && c != '1' {
			return false, fmt.Errorf("inputs must be 0/1 digits, got %q", inputBits)
		}
		inputs = append(inputs, int(c-'0'))
	}
	if len(inputs) != tg.N {
		return false, fmt.Errorf("family %s has n=%d, got %d input digits", family, tg.N, len(inputs))
	}
	ex := &conformance.Explorer{Target: tg, Space: sp, Oracles: oracles}
	violations, err := ex.Replay(inputs, id)
	if err != nil {
		return false, err
	}
	var b strings.Builder
	if len(violations) == 0 {
		b.WriteString("replay clean: no oracle violations\n")
	}
	for _, v := range violations {
		fmt.Fprintln(&b, v.String())
	}
	_, err = io.WriteString(w, b.String())
	return len(violations) > 0, err
}
