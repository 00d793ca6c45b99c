// Package proxcensus is the public API of this repository: a Go
// implementation of "A New Way to Achieve Round-Efficient Byzantine
// Agreement" (Fitzi, Liu-Zhang, Loss — PODC 2021).
//
// The paper generalizes the Feldman-Micali iteration for randomized
// Byzantine Agreement: instead of iterating graded consensus + coin,
// expand the parties' values onto an s-slot Proxcensus (all honest
// parties end in two adjacent slots), flip one (s-1)-valued coin, and
// extract a bit by cutting the slot line at the coin. Only one coin
// value can split two adjacent slots, so each iteration fails with
// probability 1/(s-1) instead of 1/2.
//
// # Quick start
//
//	setup, _ := proxcensus.NewSetup(7, 2, proxcensus.CoinIdeal, 1)
//	proto, _ := proxcensus.NewOneShot(setup, 20, []int{1, 1, 0, 1, 0, 1, 1})
//	res, _ := proto.Run(proxcensus.Passive(), 42)
//	fmt.Println(proxcensus.Decisions(res)) // the honest parties' common bit
//
// # Protocols
//
//   - NewOneShot: t < n/3, κ+1 rounds for error 2^-κ — the paper's
//     headline result (half the rounds of fixed-round Feldman-Micali).
//   - NewHalf: t < n/2, 3κ/2 rounds (vs 2κ for the prior best).
//   - NewFM, NewMV, NewMVCert: the fixed-round baselines.
//   - NewMultivaluedOneShot / NewMultivaluedHalf: Turpin-Coan
//     extensions to arbitrary finite domains (+2 / +3 rounds).
//
// All protocols are fixed-round with simultaneous termination and run
// inside a deterministic synchronous simulator with a strongly rushing,
// adaptive Byzantine adversary; see the internal packages for the
// Proxcensus building blocks (exponential expansion for t < n/3,
// linear and quadratic constructions for t < n/2, and Proxcast for
// t < n).
package proxcensus

import (
	"fmt"

	"proxcensus/internal/adversary"
	"proxcensus/internal/ba"
	"proxcensus/internal/conformance"
	"proxcensus/internal/sim"
	"proxcensus/internal/transport"
)

// Value is a BA input/output value; core protocols are binary (0/1),
// multivalued wrappers accept any int.
type Value = ba.Value

// Setup bundles the trusted-setup artifacts (threshold-signature keys
// and coin) of one execution.
type Setup = ba.Setup

// Protocol is a fully instantiated fixed-round BA construction.
type Protocol = ba.Protocol

// CoinMode selects the coin instantiation.
type CoinMode = ba.CoinMode

// Coin modes: the ideal 1-round multivalued coin assumed by the round
// comparisons, or the threshold-signature construction in the
// random-oracle model.
const (
	CoinIdeal     = ba.CoinIdeal
	CoinThreshold = ba.CoinThreshold
)

// Result is the outcome of one protocol execution.
type Result = sim.Result

// Adversary drives the corrupted parties; see the Passive, Crash and
// WorstCase helpers, or implement the interface directly.
type Adversary = sim.Adversary

// NewSetup runs the trusted dealer for n parties tolerating t
// corruptions, deterministically in seed.
func NewSetup(n, t int, mode CoinMode, seed int64) (*Setup, error) {
	return ba.NewSetup(n, t, mode, seed)
}

// NewOneShot builds the paper's headline t < n/3 protocol: Prox_{2^κ+1}
// in κ rounds plus a single multivalued coin flip — κ+1 rounds for
// error 2^-κ (Corollary 2).
func NewOneShot(setup *Setup, kappa int, inputs []Value) (*Protocol, error) {
	return ba.NewOneShot(setup, kappa, inputs)
}

// NewHalf builds the paper's t < n/2 protocol: ⌈κ/2⌉ iterations of
// 3-round Prox_5 with the coin in parallel — 3κ/2 rounds for error
// 2^-κ (Corollary 2).
func NewHalf(setup *Setup, kappa int, inputs []Value) (*Protocol, error) {
	return ba.NewHalf(setup, kappa, inputs)
}

// NewFM builds the fixed-round Feldman-Micali baseline (t < n/3,
// 2κ rounds).
func NewFM(setup *Setup, kappa int, inputs []Value) (*Protocol, error) {
	return ba.NewFM(setup, kappa, inputs)
}

// NewMV builds the Micali-Vaikuntanathan-style baseline (t < n/2,
// 2κ rounds) with threshold-signature certificates.
func NewMV(setup *Setup, kappa int, inputs []Value) (*Protocol, error) {
	return ba.NewMV(setup, kappa, inputs)
}

// NewMVCert is NewMV with explicit share-set certificates on the wire,
// reproducing MV's O(κn³) communication.
func NewMVCert(setup *Setup, kappa int, inputs []Value) (*Protocol, error) {
	return ba.NewMVCert(setup, kappa, inputs)
}

// NewIteratedHalf generalizes NewHalf to any odd slot count (the
// footnote-6 ablation).
func NewIteratedHalf(setup *Setup, kappa, slots int, inputs []Value) (*Protocol, error) {
	return ba.NewIteratedHalf(setup, kappa, slots, inputs)
}

// NewMultivaluedOneShot builds multivalued BA for t < n/3 (κ+3 rounds):
// the 2-round Turpin-Coan prefix plus the binary one-shot protocol.
func NewMultivaluedOneShot(setup *Setup, kappa int, inputs []Value, defaultValue Value) (*Protocol, error) {
	return ba.NewMultivaluedOneShot(setup, kappa, inputs, defaultValue)
}

// NewMultivaluedHalf builds multivalued BA for t < n/2 (3κ/2+3
// rounds).
func NewMultivaluedHalf(setup *Setup, kappa int, inputs []Value, defaultValue Value) (*Protocol, error) {
	return ba.NewMultivaluedHalf(setup, kappa, inputs, defaultValue)
}

// LVDecision is a probabilistic-termination party's output: the decided
// value plus the rounds at which it decided and fell silent.
type LVDecision = ba.LVDecision

// NewLasVegas builds the classical probabilistic-termination
// Feldman-Micali protocol for t < n/3 — expected-constant rounds but
// non-simultaneous termination, the contrast motivating the paper's
// fixed-round constructions (Section 1). Extract outputs with
// LVDecisions.
func NewLasVegas(setup *Setup, maxIterations int, inputs []Value) (*Protocol, error) {
	return ba.NewLasVegas(setup, maxIterations, inputs)
}

// LVDecisions extracts Las Vegas outputs ordered by party ID.
func LVDecisions(res *Result) []LVDecision { return ba.LVDecisions(res) }

// Decisions extracts the honest parties' outputs from an execution,
// ordered by party ID.
func Decisions(res *Result) []Value { return ba.Decisions(res) }

// CheckAgreement verifies all honest outputs are equal.
func CheckAgreement(outputs []Value) error { return ba.CheckAgreement(outputs) }

// CheckValidity verifies that common honest input was preserved.
func CheckValidity(input Value, outputs []Value) error { return ba.CheckValidity(input, outputs) }

// Passive returns the empty adversary: a fault-free execution.
func Passive() Adversary { return sim.Passive{} }

// Crash returns a fail-stop adversary corrupting the given parties from
// round 1.
func Crash(victims ...int) Adversary { return &adversary.Crash{Victims: victims} }

// LateCrash returns an adversary that runs its victims honestly until
// round `when`, then corrupts them mid-round and drops their in-flight
// messages (the strongly rushing capability).
func LateCrash(when int, victims ...int) Adversary {
	return &adversary.LateCrash{Victims: victims, When: when}
}

// WorstCaseThird returns the sharpest known attack against the
// expansion-based protocols (one-shot and FM) at the extremal n = 3t+1:
// it forces the per-iteration disagreement probability to exactly
// 1/(s-1). roundsPerIteration is κ+1 for the one-shot protocol and 2
// for FM.
func WorstCaseThird(n, t, roundsPerIteration int) Adversary {
	return &adversary.ExpandAdaptiveSplit{N: n, T: t, Period: roundsPerIteration}
}

// WorstCaseHalf returns the sharpest known attack against the
// linear-Proxcensus protocols (NewHalf, NewMV) at the extremal
// n = 2t+1. roundsPerIteration is 3 for NewHalf and 2 for NewMV.
func WorstCaseHalf(setup *Setup, roundsPerIteration int) Adversary {
	return &adversary.LinearAdaptiveSplit{
		N: setup.N, T: setup.T, Period: roundsPerIteration,
		Keys: setup.ProxSKs[:setup.T],
	}
}

// Outcome aggregates a batch of trials (error rate with confidence
// interval, traffic averages).
type Outcome = conformance.Outcome

// TrialFactory builds a fresh protocol and adversary per trial. Trials
// run in parallel, so it must not share mutable state across calls.
type TrialFactory = conformance.TrialFactory

// RunTrials executes repeated independent runs and aggregates
// agreement failures and traffic.
func RunTrials(name string, trials int, factory TrialFactory) (*Outcome, error) {
	return conformance.Sample(name, trials, 0, factory)
}

// RunLocalTCP executes a protocol with every party as a separate TCP
// node on localhost (fault-free deployment demo): a hub synchronizes
// the rounds and payloads travel in the repository's binary wire
// format, and every node screens its ingress. It returns the decisions
// by party ID; any node failure is fatal.
func RunLocalTCP(proto *Protocol) ([]Value, error) {
	res, err := transport.RunLocal(proto.Machines, proto.Rounds, transport.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	decisions := make([]Value, len(res.Outputs))
	for i, o := range res.Outputs {
		if res.Errs[i] != nil {
			return nil, fmt.Errorf("proxcensus: node %d: %w", i, res.Errs[i])
		}
		v, ok := o.(Value)
		if !ok {
			return nil, fmt.Errorf("proxcensus: node %d output %T, want Value", i, o)
		}
		decisions[i] = v
	}
	return decisions, nil
}
