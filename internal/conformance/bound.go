package conformance

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"proxcensus/internal/adversary"
	"proxcensus/internal/ba"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/stats"
)

// This file is the statistical arm of the conformance suite and the one
// sampler behind every error-rate experiment: it runs independent
// executions over many seeds, counts honest disagreement, and tests the
// observed rate against the paper's bound (1/(s-1) per iteration,
// Theorem 1; 2^-κ overall, Corollary 2) with an exact one-sided
// binomial test. The adaptive straddle adversaries achieve the bound
// with equality, so the test is two-sided in spirit: a rate
// significantly above the bound rejects the implementation, and the
// companion tests in bound_test.go additionally assert the rate is not
// degenerately far below it (the attack works).

// TrialFactory builds a fresh protocol instance and adversary for one
// trial. Machines are stateful, so every trial needs new ones; seed
// varies per trial for coin/adversary randomness. Sample calls it
// concurrently, so it must not share mutable state across calls.
type TrialFactory func(seed int64) (*ba.Protocol, sim.Adversary, error)

// Outcome aggregates a sample of independent executions.
type Outcome struct {
	// Name labels the protocol/adversary combination.
	Name string
	// Trials is the number of executions.
	Trials int
	// Rounds is the protocols' fixed round budget.
	Rounds int
	// Disagreements counts trials where honest outputs differed.
	Disagreements int
	// Bound is the disagreement probability the sample is tested
	// against; zero when the experiment claims none.
	Bound float64
	// ErrorRate estimates the disagreement probability with a 95%
	// Wilson interval.
	ErrorRate stats.Proportion
	// AvgMessages, AvgSignatures, AvgBytes are per-trial honest traffic
	// averages.
	AvgMessages   float64
	AvgSignatures float64
	AvgBytes      float64
}

// String renders a one-line summary.
func (o *Outcome) String() string {
	return fmt.Sprintf("%s: rounds=%d error=%s msgs=%.0f sigs=%.0f",
		o.Name, o.Rounds, o.ErrorRate, o.AvgMessages, o.AvgSignatures)
}

// Check runs the exact one-sided binomial test of the disagreement
// count against Bound at significance alpha.
func (o *Outcome) Check(alpha float64) (stats.BoundReport, error) {
	return stats.CheckUpperBound(o.Disagreements, o.Trials, o.Bound, alpha)
}

// trial is one execution's contribution to an Outcome.
type trial struct {
	disagreed          bool
	rounds             int
	msgs, sigs, nbytes int
	err                error
}

// Sample runs `trials` independent executions from the factory across
// GOMAXPROCS goroutines (capped at the trial count), each on the
// sequential engine. Trial i builds from seed i and executes with seed
// i*7+1, and the integer counts are folded in index order, so the
// outcome is a pure function of (factory, trials) whatever the
// scheduling.
func Sample(name string, trials int, bound float64, factory TrialFactory) (*Outcome, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("conformance: trials must be positive, got %d", trials)
	}
	results := make([]trial, trials)
	workers := min(runtime.GOMAXPROCS(0), trials)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < trials; i += workers {
				results[i] = runTrial(i, factory)
			}
		}()
	}
	wg.Wait()

	out := &Outcome{Name: name, Trials: trials, Bound: bound}
	var msgs, sigs, nbytes int64
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("conformance: %s trial %d: %w", name, i, r.err)
		}
		if r.disagreed {
			out.Disagreements++
		}
		out.Rounds = r.rounds
		msgs += int64(r.msgs)
		sigs += int64(r.sigs)
		nbytes += int64(r.nbytes)
	}
	rate, err := stats.NewProportion(out.Disagreements, trials)
	if err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}
	out.ErrorRate = rate
	out.AvgMessages = float64(msgs) / float64(trials)
	out.AvgSignatures = float64(sigs) / float64(trials)
	out.AvgBytes = float64(nbytes) / float64(trials)
	return out, nil
}

// runTrial builds and executes trial i.
func runTrial(i int, factory TrialFactory) trial {
	proto, adv, err := factory(int64(i))
	if err != nil {
		return trial{err: err}
	}
	res, err := proto.Run(adv, int64(i)*7+1)
	if err != nil {
		return trial{err: err}
	}
	return trial{
		disagreed: ba.CheckAgreement(ba.Decisions(res)) != nil,
		rounds:    proto.Rounds,
		msgs:      res.Metrics.TotalHonestMessages(),
		sigs:      res.Metrics.TotalHonestSignatures(),
		nbytes:    res.Metrics.TotalHonestBytes(),
	}
}

// OneShotBoundSample samples the one-shot t < n/3 protocol (one
// iteration: Prox_{2^kappa+1} plus one coin) under ExpandAdaptiveSplit
// with split honest inputs. The disagreement bound is 1/(s-1) = 2^-kappa.
func OneShotBoundSample(n, t, kappa, trials int) (*Outcome, error) {
	slots := proxcensus.ExpandSlots(kappa)
	name := fmt.Sprintf("oneshot s=%d", slots)
	return Sample(name, trials, 1/float64(slots-1), func(seed int64) (*ba.Protocol, sim.Adversary, error) {
		setup, err := ba.NewSetup(n, t, ba.CoinIdeal, seed*997+13)
		if err != nil {
			return nil, nil, err
		}
		proto, err := ba.NewOneShot(setup, kappa, adversary.ExpandSplitInputs(n, t))
		if err != nil {
			return nil, nil, err
		}
		return proto, &adversary.ExpandAdaptiveSplit{N: n, T: t, Period: proto.Rounds}, nil
	})
}

// HalfBoundSample samples the t < n/2 protocol (⌈kappa/2⌉ iterations of
// 3-round linear Prox_5, coin in parallel) under LinearAdaptiveSplit
// with split honest inputs. Each iteration fails with 1/(s-1) = 1/4, so
// the bound is (1/4)^⌈kappa/2⌉.
func HalfBoundSample(n, t, kappa, trials int) (*Outcome, error) {
	iters := (kappa + 1) / 2
	return Sample("half s=5", trials, math.Pow(0.25, float64(iters)), func(seed int64) (*ba.Protocol, sim.Adversary, error) {
		setup, err := ba.NewSetup(n, t, ba.CoinIdeal, seed*983+11)
		if err != nil {
			return nil, nil, err
		}
		proto, err := ba.NewHalf(setup, kappa, adversary.LinearSplitInputs(n, t))
		if err != nil {
			return nil, nil, err
		}
		return proto, &adversary.LinearAdaptiveSplit{N: n, T: t, Period: 3, Keys: setup.ProxSKs[:t]}, nil
	})
}
