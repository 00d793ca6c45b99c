// Package harness implements the experiment suite indexed in DESIGN.md
// §4 and recorded in EXPERIMENTS.md: every table/figure and every
// quantitative claim of the paper's evaluation (Section 3.5, Corollaries
// 1-2, Theorem 1, appendices) has a generator here, and renders its
// result table. Every disagreement-counting experiment samples through
// conformance.Sample; cmd/proxbench calls these.
package harness

import (
	"bytes"
	"fmt"

	"proxcensus/internal/adversary"
	"proxcensus/internal/ba"
	"proxcensus/internal/conformance"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/stats"
)

// ExperimentRoundsThird reproduces E1 (structural part): the round
// budgets of the one-shot protocol vs fixed-round Feldman-Micali for
// t < n/3 (Corollary 2: κ+1 vs 2κ — an asymptotic factor-2 saving).
func ExperimentRoundsThird(kappas []int) *Table {
	t := &Table{
		Title:   "E1: rounds to error 2^-kappa, t<n/3 (paper: kappa+1 vs 2*kappa)",
		Columns: []string{"kappa", "oneshot", "fm", "saving"},
	}
	for _, k := range kappas {
		ours, fm := ba.OneShotRounds(k), ba.FMRounds(k)
		t.AddRow(k, ours, fm, fmt.Sprintf("%.3f", float64(ours)/float64(fm)))
	}
	return t
}

// ExperimentRoundsHalf reproduces E2 (structural part): 3κ/2 vs 2κ for
// t < n/2 (Corollary 2 — a factor-3/4 saving).
func ExperimentRoundsHalf(kappas []int) *Table {
	t := &Table{
		Title:   "E2: rounds to error 2^-kappa, t<n/2 (paper: 3*kappa/2 vs 2*kappa)",
		Columns: []string{"kappa", "half", "mv", "saving"},
	}
	for _, k := range kappas {
		ours, mv := ba.HalfRounds(k), ba.MVRounds(k)
		t.AddRow(k, ours, mv, fmt.Sprintf("%.3f", float64(ours)/float64(mv)))
	}
	return t
}

// ExperimentErrorThird reproduces E1 (empirical part): the measured
// disagreement probability of the one-shot protocol under the adaptive
// straddle attack, against the bound 2^-κ, at the extremal n = 3t+1.
func ExperimentErrorThird(tCorrupt int, kappas []int, trials int) (*Table, error) {
	n := 3*tCorrupt + 1
	table := &Table{
		Title:   fmt.Sprintf("E1: measured error, one-shot t<n/3 (n=%d, t=%d, %d trials, worst-case adversary)", n, tCorrupt, trials),
		Note:    "paper bound: 2^-kappa per Theorem 1 with s=2^kappa+1",
		Columns: []string{"kappa", "rounds", "bound", "measured", "95% CI"},
	}
	for _, kappa := range kappas {
		out, err := conformance.OneShotBoundSample(n, tCorrupt, kappa, trials)
		if err != nil {
			return nil, err
		}
		table.AddRow(kappa, out.Rounds, fmt.Sprintf("%.4g", out.Bound), out.ErrorRate.P, interval(out.ErrorRate))
	}
	return table, nil
}

// ExperimentErrorHalf reproduces E2 (empirical part) at the extremal
// n = 2t+1: measured error of the 3κ/2-round protocol vs its 2^-κ
// bound under the adaptive straddle attack.
func ExperimentErrorHalf(tCorrupt int, kappas []int, trials int) (*Table, error) {
	n := 2*tCorrupt + 1
	table := &Table{
		Title:   fmt.Sprintf("E2: measured error, iterated Prox_5 t<n/2 (n=%d, t=%d, %d trials, worst-case adversary)", n, tCorrupt, trials),
		Note:    "paper bound: (1/4)^(kappa/2) = 2^-kappa",
		Columns: []string{"kappa", "rounds", "bound", "measured", "95% CI"},
	}
	for _, kappa := range kappas {
		out, err := conformance.HalfBoundSample(n, tCorrupt, kappa, trials)
		if err != nil {
			return nil, err
		}
		table.AddRow(kappa, out.Rounds, fmt.Sprintf("%.4g", out.Bound), out.ErrorRate.P, interval(out.ErrorRate))
	}
	return table, nil
}

// CommScalingResult pairs the E3 table with the fitted exponents.
type CommScalingResult struct {
	Table    *Table
	FitOurs  stats.PowerFit
	FitMV    stats.PowerFit
	FitMVPKI stats.PowerFit
}

// ExperimentCommScaling reproduces E3: honest signatures sent vs n for
// the paper's t < n/2 protocol (threshold signatures, O(κn²)) against
// the MV baseline in both wire formats — threshold (also O(κn²)) and
// PKI certificates (O(κn³), the complexity the paper quotes for MV).
// The fitted exponents make the factor-n gap quantitative.
func ExperimentCommScaling(ns []int, kappa int) (*CommScalingResult, error) {
	table := &Table{
		Title:   fmt.Sprintf("E3: honest signatures sent vs n (kappa=%d, fault-free run)", kappa),
		Note:    "paper: ours O(kappa n^2); MV O(kappa n^3) even assuming threshold signatures",
		Columns: []string{"n", "t", "half(sigs)", "mv-thresh(sigs)", "mv-pki(sigs)"},
	}
	xs := make([]float64, 0, len(ns))
	ours := make([]float64, 0, len(ns))
	mv := make([]float64, 0, len(ns))
	mvpki := make([]float64, 0, len(ns))
	for _, n := range ns {
		tCorrupt := (n - 1) / 2
		meter := func(build func(setup *ba.Setup) (*ba.Protocol, error)) (float64, error) {
			setup, err := ba.NewSetup(n, tCorrupt, ba.CoinIdeal, 99)
			if err != nil {
				return 0, err
			}
			proto, err := build(setup)
			if err != nil {
				return 0, err
			}
			res, err := proto.Run(sim.Passive{}, 1)
			if err != nil {
				return 0, err
			}
			return float64(res.Metrics.TotalHonestSignatures()), nil
		}
		inputs := adversary.LinearSplitInputs(n, tCorrupt)
		a, err := meter(func(s *ba.Setup) (*ba.Protocol, error) { return ba.NewHalf(s, kappa, inputs) })
		if err != nil {
			return nil, err
		}
		b, err := meter(func(s *ba.Setup) (*ba.Protocol, error) { return ba.NewMV(s, kappa, inputs) })
		if err != nil {
			return nil, err
		}
		c, err := meter(func(s *ba.Setup) (*ba.Protocol, error) { return ba.NewMVCert(s, kappa, inputs) })
		if err != nil {
			return nil, err
		}
		table.AddRow(n, tCorrupt, a, b, c)
		xs = append(xs, float64(n))
		ours = append(ours, a)
		mv = append(mv, b)
		mvpki = append(mvpki, c)
	}
	fitOurs, err := stats.FitPower(xs, ours)
	if err != nil {
		return nil, err
	}
	fitMV, err := stats.FitPower(xs, mv)
	if err != nil {
		return nil, err
	}
	fitMVPKI, err := stats.FitPower(xs, mvpki)
	if err != nil {
		return nil, err
	}
	table.AddRow("fit", "", fmt.Sprintf("n^%.2f", fitOurs.Exponent),
		fmt.Sprintf("n^%.2f", fitMV.Exponent), fmt.Sprintf("n^%.2f", fitMVPKI.Exponent))
	return &CommScalingResult{Table: table, FitOurs: fitOurs, FitMV: fitMV, FitMVPKI: fitMVPKI}, nil
}

// ExperimentIterationFailure reproduces E4: the per-iteration
// disagreement probability 1/(s-1) of Theorem 1, measured for a single
// generalized iteration at several slot counts under the sharpest
// straddle attacks.
func ExperimentIterationFailure(trials int) (*Table, error) {
	table := &Table{
		Title:   fmt.Sprintf("E4: per-iteration failure probability (%d trials, worst-case adversary)", trials),
		Note:    "paper (Theorem 1): exactly 1/(s-1) per iteration",
		Columns: []string{"iteration", "s", "1/(s-1)", "measured", "95% CI"},
	}
	type row struct {
		name   string
		slots  int
		sample func() (*conformance.Outcome, error)
	}
	rows := []row{
		{"oneshot kappa=1 (n=4)", 3, func() (*conformance.Outcome, error) { return conformance.OneShotBoundSample(4, 1, 1, trials) }},
		{"oneshot kappa=2 (n=4)", 5, func() (*conformance.Outcome, error) { return conformance.OneShotBoundSample(4, 1, 2, trials) }},
		{"oneshot kappa=3 (n=4)", 9, func() (*conformance.Outcome, error) { return conformance.OneShotBoundSample(4, 1, 3, trials) }},
		{"fm single iteration (n=4)", 3, func() (*conformance.Outcome, error) {
			return conformance.Sample("fm", trials, 0.5, func(seed int64) (*ba.Protocol, sim.Adversary, error) {
				setup, err := ba.NewSetup(4, 1, ba.CoinIdeal, seed*109+1)
				if err != nil {
					return nil, nil, err
				}
				proto, err := ba.NewFM(setup, 1, adversary.LinearSplitInputs(4, 1))
				if err != nil {
					return nil, nil, err
				}
				return proto, &adversary.ExpandAdaptiveSplit{N: 4, T: 1, Period: 2}, nil
			})
		}},
		{"half single iteration (n=3)", 5, func() (*conformance.Outcome, error) { return conformance.HalfBoundSample(3, 1, 2, trials) }},
		{"mv single iteration (n=3)", 3, func() (*conformance.Outcome, error) {
			return conformance.Sample("mv", trials, 0.5, func(seed int64) (*ba.Protocol, sim.Adversary, error) {
				setup, err := ba.NewSetup(3, 1, ba.CoinIdeal, seed*127+9)
				if err != nil {
					return nil, nil, err
				}
				proto, err := ba.NewMV(setup, 1, adversary.LinearSplitInputs(3, 1))
				if err != nil {
					return nil, nil, err
				}
				return proto, &adversary.LinearAdaptiveSplit{N: 3, T: 1, Period: 2, Keys: setup.ProxSKs[:1]}, nil
			})
		}},
	}
	for _, r := range rows {
		out, err := r.sample()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		table.AddRow(r.name, r.slots, fmt.Sprintf("%.4g", out.Bound), out.ErrorRate.P, interval(out.ErrorRate))
	}
	return table, nil
}

// ExperimentSlotGrowth reproduces E5: slots achievable per round budget
// for all four Proxcensus families (Corollary 1, Lemma 3, Lemma 7,
// Lemma 6).
func ExperimentSlotGrowth(maxRounds int) *Table {
	t := &Table{
		Title:   "E5: Proxcensus slots by round budget",
		Note:    "expand t<n/3: 2^r+1; linear t<n/2: 2r-1; quadratic t<n/2: 3+(r-3)(r-2); proxcast t<n: r+1",
		Columns: []string{"rounds", "expand(n/3)", "linear(n/2)", "quadratic(n/2)", "proxcast(n)"},
	}
	for r := 1; r <= maxRounds; r++ {
		linear, quad := "-", "-"
		if r >= 2 {
			linear = fmt.Sprint(proxcensus.LinearSlots(r))
		}
		if r >= 3 {
			quad = fmt.Sprint(proxcensus.QuadSlots(r))
		}
		t.AddRow(r, proxcensus.ExpandSlots(r), linear, quad, r+1)
	}
	return t
}

// ExperimentMultivalued reproduces E6: the multivalued extension's
// round overhead (+2 for t<n/3, +3 for t<n/2) with a correctness spot
// check per row.
func ExperimentMultivalued(kappas []int, trials int) (*Table, error) {
	table := &Table{
		Title:   "E6: multivalued BA overhead (Turpin-Coan)",
		Note:    "paper: +2 rounds for t<n/3, +3 rounds for t<n/2",
		Columns: []string{"kappa", "binary n/3", "multi n/3", "binary n/2", "multi n/2", "agreement"},
	}
	for _, kappa := range kappas {
		out, err := conformance.Sample("multival", trials, 0, func(seed int64) (*ba.Protocol, sim.Adversary, error) {
			setup, err := ba.NewSetup(7, 2, ba.CoinIdeal, seed*131+3)
			if err != nil {
				return nil, nil, err
			}
			inputs := []ba.Value{11, 22, 22, 33, 22, 11, 22}
			proto, err := ba.NewMultivaluedOneShot(setup, kappa, inputs, -1)
			if err != nil {
				return nil, nil, err
			}
			return proto, &adversary.Crash{Victims: adversary.FirstT(2)}, nil
		})
		if err != nil {
			return nil, err
		}
		table.AddRow(kappa,
			ba.OneShotRounds(kappa), ba.MultivaluedOneShotRounds(kappa),
			ba.HalfRounds(kappa), ba.MultivaluedHalfRounds(kappa),
			fmt.Sprintf("%d/%d", out.Trials-out.Disagreements, out.Trials))
	}
	return table, nil
}

// ExperimentPayloadDissemination measures the ℓ-bit multivalued
// protocol end to end in-sim: honest bytes on the wire per decided
// payload byte at n in ns, for each payload size in sizes. The
// denominator is n·ℓ (every party decides ℓ bytes — the O(nℓ)
// yardstick of the multivalued-BA literature), so the reported ratio
// is the broadcast overhead factor: ~2n for this family, since rounds
// 1-2 each carry n² payload-bearing messages.
func ExperimentPayloadDissemination(ns, sizes []int, kappa, trials int) (*Table, error) {
	table := &Table{
		Title:   "E9: payload dissemination cost (bytes on wire per decided byte)",
		Note:    "yardstick: n*payload decided bytes per execution; ratio ~2n from the two n^2 payload rounds",
		Columns: []string{"n", "t", "payload", "rounds", "wire bytes", "decided bytes", "bytes/decbyte"},
	}
	for _, n := range ns {
		t := (n - 1) / 3
		for _, size := range sizes {
			input := bytes.Repeat([]byte{0x6b}, size)
			inputs := make([][]byte, n)
			for i := range inputs {
				inputs[i] = input
			}
			var wire, decided int64
			for trial := 0; trial < trials; trial++ {
				setup, err := ba.NewSetup(n, t, ba.CoinIdeal, int64(trial)*131+7)
				if err != nil {
					return nil, err
				}
				proto, err := ba.NewMultivaluedPayloadOneShot(setup, kappa, inputs, nil)
				if err != nil {
					return nil, err
				}
				res, err := proto.Run(&adversary.Crash{Victims: adversary.FirstT(t)}, int64(trial))
				if err != nil {
					return nil, err
				}
				if err := ba.CheckPayloadValidity(input, ba.PayloadDecisions(res)); err != nil {
					return nil, fmt.Errorf("payload n=%d size=%d trial %d: %w", n, size, trial, err)
				}
				wire += int64(res.Metrics.TotalHonestBytes())
				decided += int64(n * size)
			}
			table.AddRow(n, t, size, ba.MultivaluedOneShotRounds(kappa),
				wire/int64(trials), decided/int64(trials),
				fmt.Sprintf("%.2f", float64(wire)/float64(decided)))
		}
	}
	return table, nil
}

// ExperimentSlotChoice reproduces the footnote-6 ablation: total rounds
// to error 2^-κ for the iterated t<n/2 protocol at different slot
// counts, showing the optimum at s=5.
func ExperimentSlotChoice(kappa int) *Table {
	t := &Table{
		Title:   fmt.Sprintf("A1: slot-count ablation for iterated t<n/2 BA (kappa=%d)", kappa),
		Note:    "footnote 6: other slot choices do not beat s=5 (3 rounds/iter, 2 bits/iter); quadratic family included",
		Columns: []string{"family", "s", "rounds/iter", "bits/iter", "iterations", "total rounds"},
	}
	bitsOf := func(s int) int {
		bits := 0
		for v := s - 1; v > 1; v >>= 1 {
			bits++
		}
		return bits
	}
	for _, s := range []int{3, 5, 7, 9, 17, 33} {
		r := (s + 1) / 2
		bits := bitsOf(s)
		iters := (kappa + bits - 1) / bits
		t.AddRow("linear", s, r, bits, iters, ba.IteratedHalfRounds(kappa, s))
	}
	for _, r := range []int{3, 5, 6, 7, 10} {
		s := proxcensus.QuadSlots(r)
		bits := bitsOf(s)
		iters := (kappa + bits - 1) / bits
		t.AddRow("quadratic", s, r+1, bits, iters, ba.QuadHalfRounds(kappa, r))
	}
	return t
}

// ExperimentCoinParallelism reproduces ablation A2: the paper's
// parallel-coin trick saves κ/2 rounds at identical error.
func ExperimentCoinParallelism(tCorrupt, kappa, trials int) (*Table, error) {
	n := 2*tCorrupt + 1
	table := &Table{
		Title:   fmt.Sprintf("A2: coin parallelism ablation, t<n/2 (n=%d, kappa=%d, %d trials)", n, kappa, trials),
		Note:    "coin in parallel with Prox_5 round 3 (paper) vs dedicated coin round",
		Columns: []string{"variant", "rounds", "measured error", "95% CI"},
	}
	run := func(name string, build func(setup *ba.Setup) (*ba.Protocol, error)) error {
		out, err := conformance.Sample(name, trials, 0, func(seed int64) (*ba.Protocol, sim.Adversary, error) {
			setup, err := ba.NewSetup(n, tCorrupt, ba.CoinIdeal, seed*151+7)
			if err != nil {
				return nil, nil, err
			}
			proto, err := build(setup)
			if err != nil {
				return nil, nil, err
			}
			adv := &adversary.LinearAdaptiveSplit{N: n, T: tCorrupt, Period: proto.Rounds / ((kappa + 1) / 2), Keys: setup.ProxSKs[:tCorrupt]}
			return proto, adv, nil
		})
		if err != nil {
			return err
		}
		table.AddRow(name, out.Rounds, out.ErrorRate.P, interval(out.ErrorRate))
		return nil
	}
	inputs := adversary.LinearSplitInputs(n, tCorrupt)
	if err := run("parallel (paper)", func(s *ba.Setup) (*ba.Protocol, error) { return ba.NewHalf(s, kappa, inputs) }); err != nil {
		return nil, err
	}
	if err := run("sequential", func(s *ba.Setup) (*ba.Protocol, error) { return ba.NewHalfSequentialCoin(s, kappa, inputs) }); err != nil {
		return nil, err
	}
	return table, nil
}

// ExperimentRushing reproduces ablation A3: the adaptive straddle
// attack's success rate with and without the rushing capability. The
// attack reads honest round-1 traffic; blind it and it collapses.
func ExperimentRushing(trials int) (*Table, error) {
	const n, tCorrupt, kappa = 4, 1, 2
	table := &Table{
		Title:   fmt.Sprintf("A3: rushing ablation, one-shot t<n/3 (n=%d, kappa=%d, %d trials)", n, kappa, trials),
		Note:    "the model grants the adversary a rushing view (Section 2.1); without it the adaptive attack collapses",
		Columns: []string{"adversary view", "measured error", "95% CI"},
	}
	for _, rushing := range []bool{true, false} {
		label := "rushing (model)"
		if !rushing {
			label = "non-rushing (ablation)"
		}
		out, err := conformance.Sample(label, trials, 0, func(seed int64) (*ba.Protocol, sim.Adversary, error) {
			setup, err := ba.NewSetup(n, tCorrupt, ba.CoinIdeal, seed*157+11)
			if err != nil {
				return nil, nil, err
			}
			proto, err := ba.NewOneShot(setup, kappa, adversary.LinearSplitInputs(n, tCorrupt))
			if err != nil {
				return nil, nil, err
			}
			var adv sim.Adversary = &adversary.ExpandAdaptiveSplit{N: n, T: tCorrupt, Period: proto.Rounds}
			if !rushing {
				adv = &adversary.Blind{Inner: adv}
			}
			return proto, adv, nil
		})
		if err != nil {
			return nil, err
		}
		table.AddRow(label, out.ErrorRate.P, interval(out.ErrorRate))
	}
	return table, nil
}

// ExperimentProxcast reproduces E7 (Appendix A, Lemma 6): s-slot
// Proxcast in s-1 rounds for t < n, showing the grade a dealer
// equivocation released at round k leaves behind: the singleton window
// has length k-1, so the grade is ⌊(k-1+b)/2⌋ with b = s mod 2 — one
// grade step per two rounds of clean prefix.
func ExperimentProxcast(n, tCorrupt, slots int) (*Table, error) {
	table := &Table{
		Title:   fmt.Sprintf("E7: proxcast grade vs contradiction-release round (n=%d, t=%d, s=%d, %d rounds)", n, tCorrupt, slots, slots-1),
		Note:    "paper: s slots in s-1 rounds for t<n; grade = half the clean-prefix length",
		Columns: []string{"release round", "window", "expected grade", "measured grades"},
	}
	for release := 2; release <= slots-1; release++ {
		grades, err := runProxcastRelease(n, tCorrupt, slots, release)
		if err != nil {
			return nil, err
		}
		b := slots % 2
		want := (release - 2 + b) / 2
		table.AddRow(release, release-1, want, fmt.Sprint(grades))
	}
	return table, nil
}

// ExperimentTermination reproduces the paper's Section 1 motivation:
// probabilistic-termination ('Las Vegas') BA is fast in expectation but
// terminates non-simultaneously, while the fixed-round protocols always
// use their full budget and terminate in lock-step. Rows report the
// Las Vegas mean/95th-percentile worst halt round and the fraction of
// runs with staggered halts, against the fixed budgets.
func ExperimentTermination(trials int) (*Table, error) {
	const n, tCorrupt = 7, 2
	table := &Table{
		Title:   fmt.Sprintf("E8: termination flavours, t<n/3 (n=%d, %d trials, split inputs)", n, trials),
		Note:    "Las Vegas: expected-constant rounds, geometric tail, staggered halts; fixed-round: budget rounds, simultaneous",
		Columns: []string{"protocol", "mean rounds", "p95 rounds", "max rounds", "staggered runs"},
	}
	measure := func(label string, mkAdv func() sim.Adversary) error {
		worst := make([]float64, 0, trials)
		staggered := 0
		maxRounds := 0
		for trial := 0; trial < trials; trial++ {
			setup, err := ba.NewSetup(n, tCorrupt, ba.CoinIdeal, int64(trial*211+7))
			if err != nil {
				return err
			}
			proto, err := ba.NewLasVegas(setup, 60, adversary.LinearSplitInputs(n, tCorrupt))
			if err != nil {
				return err
			}
			res, err := proto.Run(mkAdv(), int64(trial))
			if err != nil {
				return err
			}
			decisions := ba.LVDecisions(res)
			lo, hi := decisions[0].HaltedRound, decisions[0].HaltedRound
			for _, d := range decisions {
				if d.HaltedRound < lo {
					lo = d.HaltedRound
				}
				if d.HaltedRound > hi {
					hi = d.HaltedRound
				}
			}
			if hi != lo {
				staggered++
			}
			if hi > maxRounds {
				maxRounds = hi
			}
			worst = append(worst, float64(hi))
		}
		summary, err := stats.Summarize(worst)
		if err != nil {
			return err
		}
		p95, err := stats.Quantile(worst, 0.95)
		if err != nil {
			return err
		}
		table.AddRow(label, fmt.Sprintf("%.2f", summary.Mean), p95, maxRounds,
			fmt.Sprintf("%d/%d", staggered, trials))
		return nil
	}
	if err := measure("lasvegas vs crash", func() sim.Adversary {
		return &adversary.Crash{Victims: adversary.FirstT(tCorrupt)}
	}); err != nil {
		return nil, err
	}
	if err := measure("lasvegas vs keep-split", func() sim.Adversary {
		return &adversary.ExpandAdaptiveSplit{N: n, T: tCorrupt, Period: ba.LVRoundsPerIteration}
	}); err != nil {
		return nil, err
	}
	if err := measure("lasvegas vs stagger", func() sim.Adversary {
		return &adversary.LVStagger{N: n, T: tCorrupt, Victim: tCorrupt}
	}); err != nil {
		return nil, err
	}
	for _, kappa := range []int{10, 20, 30} {
		table.AddRow(fmt.Sprintf("oneshot kappa=%d (fixed)", kappa),
			ba.OneShotRounds(kappa), ba.OneShotRounds(kappa), ba.OneShotRounds(kappa), "0 (simultaneous)")
	}
	return table, nil
}

// interval renders a proportion's 95% Wilson interval as a table cell.
func interval(p stats.Proportion) string {
	return fmt.Sprintf("[%.4g, %.4g]", p.Lo, p.Hi)
}
