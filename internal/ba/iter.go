package ba

import (
	"proxcensus/internal/coin"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// IterConfig parameterizes one generalized Feldman-Micali iteration
// Π_iter^s (Section 3.2): expansion by an s-slot Proxcensus, one
// (s-1)-valued coin flip, and the extraction cut.
type IterConfig struct {
	// Slots is s, the Proxcensus slot count.
	Slots int
	// ProxRounds is the inner Proxcensus round budget.
	ProxRounds int
	// Prox is this party's Proxcensus machine; it must output a
	// proxcensus.Result after ProxRounds rounds.
	Prox sim.Machine
	// Coin is this party's coin participant with Range() == Slots-1.
	Coin coin.Component
	// Instance is the coin instance index (the iteration number in
	// iterated protocols).
	Instance int
	// Parallel runs the coin flip concurrently with the last Proxcensus
	// round instead of in a round of its own. Sound whenever the honest
	// slot pair is already fixed before the last round — e.g. Prox_5,
	// whose slot pair is determined after round 2 (Corollary 2).
	Parallel bool
}

// Rounds returns the iteration's round budget.
func (c IterConfig) Rounds() int {
	if c.Parallel {
		return c.ProxRounds
	}
	return c.ProxRounds + 1
}

// IterMachine is one party's Π_iter^s state machine.
type IterMachine struct {
	cfg   IterConfig
	round int
	out   Value
	done  bool
}

var _ sim.Machine = (*IterMachine)(nil)

// NewIterMachine builds one party's iteration machine.
func NewIterMachine(cfg IterConfig) *IterMachine {
	return &IterMachine{cfg: cfg}
}

// reset rewinds the machine to what NewIterMachine leaves, for the
// config it was built with. The inner Proxcensus machine is the
// caller's to reset.
func (m *IterMachine) reset() {
	m.round, m.out, m.done = 0, 0, false
}

// Rounds returns the iteration's round budget.
func (m *IterMachine) Rounds() int { return m.cfg.Rounds() }

// Start implements sim.Machine.
func (m *IterMachine) Start() []sim.Send {
	sends := m.cfg.Prox.Start()
	if m.cfg.Parallel && m.cfg.ProxRounds == 1 {
		sends = append(sends, m.cfg.Coin.Sends(m.cfg.Instance)...)
	}
	return sends
}

// Deliver implements sim.Machine.
func (m *IterMachine) Deliver(round int, in []sim.Message) []sim.Send {
	if m.done {
		return nil
	}
	m.round = round
	switch {
	case round < m.cfg.ProxRounds:
		sends := m.cfg.Prox.Deliver(round, in)
		if m.cfg.Parallel && round == m.cfg.ProxRounds-1 {
			sends = append(sends, m.cfg.Coin.Sends(m.cfg.Instance)...)
		}
		return sends

	case round == m.cfg.ProxRounds:
		sends := m.cfg.Prox.Deliver(round, in)
		if !m.cfg.Parallel {
			// Dedicated coin round follows.
			return append(sends, m.cfg.Coin.Sends(m.cfg.Instance)...)
		}
		m.finish(in)
		return nil

	default: // round == ProxRounds+1, sequential coin round
		m.finish(in)
		return nil
	}
}

// finish reads the Proxcensus output and the coin, then extracts.
func (m *IterMachine) finish(in []sim.Message) {
	out, ok := m.cfg.Prox.Output()
	res, isRes := out.(proxcensus.Result)
	if !ok || !isRes {
		// A malformed inner machine; decide deterministically.
		res = proxcensus.Result{Value: 0, Grade: 0}
	}
	c, err := m.cfg.Coin.Value(m.cfg.Instance, in)
	if err != nil {
		// Unreachable with an honest majority in a synchronous round;
		// fall back deterministically rather than stall.
		c = 1
	}
	m.out = Extract(m.cfg.Slots, res, c)
	m.done = true
}

// Output implements sim.Machine.
func (m *IterMachine) Output() (any, bool) {
	if !m.done {
		return nil, false
	}
	return m.out, true
}

// IterBuilder constructs one party's iteration machine for iteration
// `iter` given the party's current value.
type IterBuilder func(iter int, input Value) *IterMachine

// NewIterChain sequences `iters` iterations for one party: each
// iteration's output value feeds the next iteration's Proxcensus, as in
// the Feldman-Micali loop. roundsPerIter must match the builder's
// machines.
func NewIterChain(iters, roundsPerIter int, input Value, build IterBuilder) *sim.Chain {
	stages := make([]sim.Stage, iters)
	for i := range stages {
		iter := i
		stages[i] = sim.Stage{
			Rounds: roundsPerIter,
			New: func(prev any) sim.Machine {
				in := input
				if iter > 0 {
					in = prev.(Value)
				}
				return build(iter, in)
			},
		}
	}
	return sim.NewChain(stages)
}
