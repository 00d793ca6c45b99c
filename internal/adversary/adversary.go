// Package adversary provides reusable Byzantine strategies for the
// simulation engine: crash faults, random garbage, equivocation, and
// protocol-aware worst-case attacks against the Proxcensus/BA protocols.
//
// All strategies honour the model of Section 2.1: they act after seeing
// the honest traffic of the round (rushing) and may corrupt adaptively
// within the engine's budget (strongly rushing).
package adversary

import (
	"math/rand"

	"proxcensus/internal/sim"
)

// Func adapts plain functions to sim.Adversary; handy for tests and
// one-off scripted attacks.
type Func struct {
	// StrategyName is reported by Name.
	StrategyName string
	// InitFunc, if non-nil, runs before round 1.
	InitFunc func(env *sim.Env)
	// ActFunc, if non-nil, produces the corrupted traffic each round.
	ActFunc func(round int, honest []sim.Message, env *sim.Env) []sim.Message
}

var _ sim.Adversary = (*Func)(nil)

// Name implements sim.Adversary.
func (f *Func) Name() string {
	if f.StrategyName == "" {
		return "func"
	}
	return f.StrategyName
}

// Init implements sim.Adversary.
func (f *Func) Init(env *sim.Env) {
	if f.InitFunc != nil {
		f.InitFunc(env)
	}
}

// Act implements sim.Adversary.
func (f *Func) Act(round int, honest []sim.Message, env *sim.Env) []sim.Message {
	if f.ActFunc != nil {
		return f.ActFunc(round, honest, env)
	}
	return nil
}

// Blind runs Inner without the rushing view: Inner.Act receives a nil
// honest-traffic slice every round, as if it had to speak before the
// honest parties. This breaks the paper's adversary model and exists
// only for the rushing ablation — it quantifies how much of an
// attack's power comes from rushing.
type Blind struct {
	// Inner is the wrapped strategy; it keeps its corruption powers.
	Inner sim.Adversary
}

var _ sim.Adversary = (*Blind)(nil)

// Name implements sim.Adversary.
func (b *Blind) Name() string { return "blind(" + b.Inner.Name() + ")" }

// Init implements sim.Adversary.
func (b *Blind) Init(env *sim.Env) { b.Inner.Init(env) }

// Act implements sim.Adversary.
func (b *Blind) Act(round int, _ []sim.Message, env *sim.Env) []sim.Message {
	return b.Inner.Act(round, nil, env)
}

// CorruptSet statically corrupts the given parties during Init.
func CorruptSet(env *sim.Env, victims []sim.PartyID) {
	for _, p := range victims {
		env.Corrupt(p)
	}
}

// FirstT returns the canonical static corruption set {0, ..., t-1}.
func FirstT(t int) []sim.PartyID {
	out := make([]sim.PartyID, t)
	for i := range out {
		out[i] = i
	}
	return out
}

// Crash corrupts its victims and never sends anything: fail-stop faults
// from round 1.
type Crash struct {
	// Victims is the static corruption set.
	Victims []sim.PartyID
}

var _ sim.Adversary = (*Crash)(nil)

// Name implements sim.Adversary.
func (c *Crash) Name() string { return "crash" }

// Init implements sim.Adversary.
func (c *Crash) Init(env *sim.Env) { CorruptSet(env, c.Victims) }

// Act implements sim.Adversary.
func (c *Crash) Act(int, []sim.Message, *sim.Env) []sim.Message { return nil }

// LateCrash runs victims honestly until round When, then corrupts them
// mid-round and drops their in-flight messages — the strongly-rushing
// capability in its purest form.
type LateCrash struct {
	// Victims are corrupted at round When.
	Victims []sim.PartyID
	// When is the round during which the victims' messages vanish.
	When int
}

var _ sim.Adversary = (*LateCrash)(nil)

// Name implements sim.Adversary.
func (c *LateCrash) Name() string { return "late-crash" }

// Init implements sim.Adversary.
func (c *LateCrash) Init(*sim.Env) {}

// Act implements sim.Adversary.
func (c *LateCrash) Act(round int, _ []sim.Message, env *sim.Env) []sim.Message {
	if round == c.When {
		CorruptSet(env, c.Victims)
	}
	return nil
}

// PayloadGen fabricates a payload for a corrupted sender to deliver to a
// specific receiver in a round; returning nil skips that receiver.
type PayloadGen func(rng *rand.Rand, round int, from, to sim.PartyID) sim.Payload

// Random corrupts its victims and floods every party with
// generator-produced garbage each round, different per receiver
// (point-to-point equivocation).
type Random struct {
	// Victims is the static corruption set.
	Victims []sim.PartyID
	// Gen produces each (sender, receiver) payload.
	Gen PayloadGen
}

var _ sim.Adversary = (*Random)(nil)

// Name implements sim.Adversary.
func (r *Random) Name() string { return "random" }

// Init implements sim.Adversary.
func (r *Random) Init(env *sim.Env) { CorruptSet(env, r.Victims) }

// Act implements sim.Adversary.
func (r *Random) Act(round int, _ []sim.Message, env *sim.Env) []sim.Message {
	msgs := make([]sim.Message, 0, len(r.Victims)*env.N())
	for _, from := range r.Victims {
		for to := 0; to < env.N(); to++ {
			if p := r.Gen(env.RNG(), round, from, to); p != nil {
				msgs = append(msgs, sim.Message{From: from, To: to, Payload: p})
			}
		}
	}
	return msgs
}

// Equivocator corrupts its victims and sends payload A to the lower half
// of the party space and payload B to the upper half, every round.
type Equivocator struct {
	// Victims is the static corruption set.
	Victims []sim.PartyID
	// A is delivered to parties with ID < n/2, B to the rest. Either
	// may be nil to stay silent toward that half.
	A, B sim.Payload
}

var _ sim.Adversary = (*Equivocator)(nil)

// Name implements sim.Adversary.
func (e *Equivocator) Name() string { return "equivocator" }

// Init implements sim.Adversary.
func (e *Equivocator) Init(env *sim.Env) { CorruptSet(env, e.Victims) }

// Act implements sim.Adversary.
func (e *Equivocator) Act(round int, _ []sim.Message, env *sim.Env) []sim.Message {
	n := env.N()
	msgs := make([]sim.Message, 0, len(e.Victims)*n)
	for _, from := range e.Victims {
		for to := 0; to < n; to++ {
			p := e.A
			if to >= n/2 {
				p = e.B
			}
			if p != nil {
				msgs = append(msgs, sim.Message{From: from, To: to, Payload: p})
			}
		}
	}
	return msgs
}

// Replay corrupts its victims and echoes back to everyone the honest
// messages observed in the same round, re-badged as the victims' own —
// a cheap rushing strategy that stresses payload validation.
type Replay struct {
	// Victims is the static corruption set.
	Victims []sim.PartyID
}

var _ sim.Adversary = (*Replay)(nil)

// Name implements sim.Adversary.
func (r *Replay) Name() string { return "replay" }

// Init implements sim.Adversary.
func (r *Replay) Init(env *sim.Env) { CorruptSet(env, r.Victims) }

// Act implements sim.Adversary.
func (r *Replay) Act(round int, honest []sim.Message, env *sim.Env) []sim.Message {
	if len(honest) == 0 {
		return nil
	}
	msgs := make([]sim.Message, 0, len(r.Victims)*env.N())
	for i, from := range r.Victims {
		src := honest[i%len(honest)]
		for to := 0; to < env.N(); to++ {
			msgs = append(msgs, sim.Message{From: from, To: to, Payload: src.Payload})
		}
	}
	return msgs
}
