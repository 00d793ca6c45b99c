package ba

import (
	"fmt"

	"proxcensus/internal/coin"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/quorum"
	"proxcensus/internal/sim"
)

// This file implements the OTHER termination flavour the paper
// discusses (Section 1): 'Las Vegas' BA with probabilistic termination
// — the classical expected-constant-round Feldman-Micali loop for
// t < n/3. Each iteration runs the 2-round Prox_5 (graded consensus,
// the paper notes Prox_5 is what the expected-round case needs, vs
// Prox_3 for fixed-round) plus a binary coin:
//
//	grade 2 -> decide y, participate in ONE more iteration, then halt;
//	grade 1 -> keep y;
//	grade 0 -> adopt the coin.
//
// If any honest party decides in iteration k, Prox_5 consistency puts
// every honest party on the same value with grade >= 1, so iteration
// k+1 starts unanimous and everyone decides by k+1 — which is why
// halting one iteration after deciding is safe. The price is exactly
// what the paper highlights (Dwork-Moses / Moses-Tuttle): parties
// terminate in DIFFERENT rounds, which breaks round-by-round
// composition. ExperimentTermination measures both the expected round
// count and the termination spread.

// LVRoundsPerIteration is the Las Vegas iteration length: 2-round
// Prox_5 plus a dedicated coin round.
const LVRoundsPerIteration = 3

// LVDecision is a Las Vegas party's output.
type LVDecision struct {
	// Value is the decided bit.
	Value Value
	// DecidedRound is the global round at whose end the party decided.
	DecidedRound int
	// HaltedRound is the global round after which the party fell
	// silent. Different honest parties generally halt in different
	// rounds — the non-simultaneous-termination phenomenon.
	HaltedRound int
}

// LVMachine is one party's probabilistic-termination FM machine.
type LVMachine struct {
	n, t  int
	party sim.PartyID
	value Value
	coin  coin.Component

	inner     *proxcensus.ExpandMachine
	iteration int // 0-based
	round     int

	decided      bool
	decidedRound int
	lastIter     bool // currently running the post-decision iteration
	halted       bool
	haltedRound  int
}

var _ sim.Machine = (*LVMachine)(nil)

// NewLVMachine builds one party's Las Vegas machine. The coin component
// must have range 2.
func NewLVMachine(n, t int, party sim.PartyID, input Value, c coin.Component) *LVMachine {
	return &LVMachine{n: n, t: t, party: party, value: input, coin: c}
}

// Start implements sim.Machine.
func (m *LVMachine) Start() []sim.Send {
	m.inner = proxcensus.NewExpandMachine(m.n, m.t, 2, m.value)
	return m.inner.Start()
}

// Deliver implements sim.Machine.
func (m *LVMachine) Deliver(round int, in []sim.Message) []sim.Send {
	m.round = round
	if m.halted {
		return nil
	}
	switch (round - 1) % LVRoundsPerIteration {
	case 0: // first Prox_5 round done; second coming up
		return m.inner.Deliver(1, in)
	case 1: // Prox_5 finished; coin round next
		m.inner.Deliver(2, in)
		return m.coin.Sends(m.iteration)
	default: // coin round done: close the iteration
		m.closeIteration(round, in)
		if m.halted {
			return nil
		}
		m.iteration++
		m.inner = proxcensus.NewExpandMachine(m.n, m.t, 2, m.value)
		return m.inner.Start()
	}
}

// closeIteration applies the decide/keep/adopt rule.
func (m *LVMachine) closeIteration(round int, in []sim.Message) {
	if m.lastIter {
		// The courtesy iteration for late deciders is over.
		m.halted = true
		m.haltedRound = round
		return
	}
	out, ok := m.inner.Output()
	res, isRes := out.(proxcensus.Result)
	if !ok || !isRes {
		res = proxcensus.Result{}
	}
	c, err := m.coin.Value(m.iteration, in)
	if err != nil {
		c = 1
	}
	switch {
	case res.Grade == 2:
		m.value = res.Value
		m.decided = true
		m.decidedRound = round
		m.lastIter = true
	case res.Grade == 1:
		m.value = res.Value
	default:
		m.value = c - 1 // coin is in [1,2]; map to a bit
	}
}

// Output implements sim.Machine: available once halted. Parties that
// never decide within the round budget report no output, which the
// engine turns into an error — callers size the budget so that the
// failure probability (2^-iterations) is negligible.
func (m *LVMachine) Output() (any, bool) {
	if !m.halted {
		return nil, false
	}
	return LVDecision{Value: m.value, DecidedRound: m.decidedRound, HaltedRound: m.haltedRound}, true
}

// NewLasVegas builds the probabilistic-termination FM protocol for
// t < n/3. maxIterations bounds the execution (failure probability
// ~2^-maxIterations); the expected number of iterations is constant.
func NewLasVegas(setup *Setup, maxIterations int, inputs []Value) (*Protocol, error) {
	if err := checkInputs(setup, maxIterations, inputs); err != nil {
		return nil, err
	}
	if !quorum.TolerateThird(setup.N, setup.T) {
		return nil, fmt.Errorf("ba: Las Vegas FM needs t < n/3, got n=%d t=%d", setup.N, setup.T)
	}
	comps := setup.CoinComponents(2, "lasvegas")
	machines := make([]sim.Machine, setup.N)
	for i := range machines {
		machines[i] = NewLVMachine(setup.N, setup.T, i, inputs[i], comps[i])
	}
	return &Protocol{
		Name: "lasvegas-n3", N: setup.N, T: setup.T,
		Rounds: maxIterations * LVRoundsPerIteration, Machines: machines,
	}, nil
}

// LVDecisions extracts the Las Vegas outputs by party ID order.
func LVDecisions(res *sim.Result) []LVDecision {
	outs := res.HonestOutputs()
	decisions := make([]LVDecision, 0, len(outs))
	for _, o := range outs {
		if d, ok := o.(LVDecision); ok {
			decisions = append(decisions, d)
		}
	}
	return decisions
}
