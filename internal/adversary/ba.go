package adversary

import (
	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// This file implements adaptive attacks against the full BA protocols.
// Unlike the static splitters, these strategies read the honest round-1
// traffic of every iteration (the rushing view) to find out how the
// honest values are currently distributed, then pin a single honest
// "target" one slot above the rest for the whole iteration. The
// resulting adjacent-slot straddle survives every iteration, forcing
// the per-iteration disagreement probability to the theoretical maximum
// 1/(s-1) of Theorem 1 — these are the adversaries under which the
// paper's error bounds are tight.

// localRound maps a global round to its position within an iteration of
// `period` rounds.
func localRound(round, period int) int { return (round-1)%period + 1 }

// honestEchoValues extracts each honest sender's current value from the
// expansion protocol's round-1 echoes.
func honestEchoValues(honest []sim.Message) map[sim.PartyID]proxcensus.Value {
	values := make(map[sim.PartyID]proxcensus.Value)
	for _, m := range honest {
		if p, ok := m.Payload.(proxcensus.EchoPayload); ok {
			if _, seen := values[m.From]; !seen {
				values[m.From] = p.Z
			}
		}
	}
	return values
}

// splitTarget picks the attack value v* and target party for the
// current honest value distribution: v* is a binary value held by at
// least `need` honest parties but not by all of them, and the target is
// its lowest-ID holder. ok is false when the honest parties are
// unanimous (validity binds; no attack exists).
func splitTarget(values map[sim.PartyID]proxcensus.Value, need int) (vstar proxcensus.Value, target sim.PartyID, ok bool) {
	count := map[proxcensus.Value]int{}
	lowest := map[proxcensus.Value]sim.PartyID{}
	for p, v := range values {
		count[v]++
		if low, seen := lowest[v]; !seen || p < low {
			lowest[v] = p
		}
	}
	if len(count) < 2 {
		return 0, 0, false
	}
	// Prefer the value with more holders (for the expansion attack the
	// boosted group must see n-t matching round-1 votes).
	best, bestCount := proxcensus.Value(0), -1
	for v, c := range count {
		if c >= need && (c > bestCount || (c == bestCount && v < best)) {
			best, bestCount = v, c
		}
	}
	if bestCount < 0 {
		return 0, 0, false
	}
	return best, lowest[best], true
}

// ExpandAdaptiveSplit attacks the expansion-based BA protocols (the
// one-shot t < n/3 protocol and the FM baseline). At each iteration's
// first round it reads the honest value distribution, picks the
// majority value v* (which at the extremal n = 3t+1 always has >= n-2t
// honest holders when the honest parties are split), and boosts its
// lowest-ID holder to grade 1 while feeding everyone else the opposite
// value — maintaining a one-slot straddle through every expansion
// round. Disagreement then occurs for exactly one coin value.
//
// Act returns a buffer the adversary owns and refills on its next call
// (sim.Adversary allows this), so a warm round allocates nothing.
type ExpandAdaptiveSplit struct {
	// N, T mirror the execution parameters.
	N, T int
	// Period is the protocol's rounds per iteration (κ+1 for the
	// one-shot protocol, 2 for FM).
	Period int

	vstar  proxcensus.Value
	target sim.PartyID
	active bool

	// msgs is the reused result buffer, sized t·n once; up and down
	// hold the two payloads boxed, re-boxed only when they change.
	msgs     []sim.Message
	up, down sim.Payload
}

var _ sim.Adversary = (*ExpandAdaptiveSplit)(nil)

// Name implements sim.Adversary.
func (a *ExpandAdaptiveSplit) Name() string { return "expand-adaptive-split" }

// Init implements sim.Adversary.
func (a *ExpandAdaptiveSplit) Init(env *sim.Env) { CorruptSet(env, FirstT(a.T)) }

// Act implements sim.Adversary.
func (a *ExpandAdaptiveSplit) Act(round int, honest []sim.Message, env *sim.Env) []sim.Message {
	local := localRound(round, a.Period)
	if local == 1 {
		// The boosted party must end round 1 seeing n-t matching votes:
		// its own holders plus our t, so v* needs n-2t honest holders.
		a.vstar, a.target, a.active = splitTarget(honestEchoValues(honest), a.N-2*a.T)
	}
	if !a.active {
		return nil
	}
	up := proxcensus.EchoPayload{Z: a.vstar, H: 1}
	if local == 1 {
		up.H = 0 // round 1 echoes carry Prox_2 pairs (grade 0 only)
	}
	boxedUp := rebox(&a.up, up)
	boxedDown := rebox(&a.down, proxcensus.EchoPayload{Z: 1 - a.vstar, H: 0})
	n := env.N()
	if cap(a.msgs) < a.T*n {
		a.msgs = make([]sim.Message, 0, a.T*n)
	}
	msgs := a.msgs[:0]
	for from := 0; from < a.T; from++ {
		for to := 0; to < n; to++ {
			p := boxedDown
			if to == a.target {
				p = boxedUp
			}
			msgs = append(msgs, sim.Message{From: from, To: to, Payload: p})
		}
	}
	a.msgs = msgs
	return msgs
}

// rebox returns *slot holding e, boxing e into it only if it holds
// something else: an adversary that repeats its payloads round after
// round boxes each once.
func rebox(slot *sim.Payload, e proxcensus.EchoPayload) sim.Payload {
	if cur, ok := (*slot).(proxcensus.EchoPayload); !ok || cur != e {
		*slot = e
	}
	return *slot
}

// LVStagger attacks the probabilistic-termination FM protocol's FIRST
// iteration (2-round Prox_5 + coin): it pushes every honest party
// except the victim to grade 2 while pinning the victim at grade 1.
// The majority decides in iteration 1 and halts after iteration 2; the
// victim decides in iteration 2 and halts after iteration 3 — forcing
// the non-simultaneous termination that probabilistic-termination BA
// cannot avoid (Section 1). Works at n = 3t+1 with the victim holding
// the minority value.
type LVStagger struct {
	// N, T mirror the execution parameters.
	N, T int
	// Victim is the honest party left one grade behind.
	Victim sim.PartyID
}

var _ sim.Adversary = (*LVStagger)(nil)

// Name implements sim.Adversary.
func (a *LVStagger) Name() string { return "lv-stagger" }

// Init implements sim.Adversary.
func (a *LVStagger) Init(env *sim.Env) { CorruptSet(env, FirstT(a.T)) }

// Act implements sim.Adversary.
func (a *LVStagger) Act(round int, honest []sim.Message, env *sim.Env) []sim.Message {
	if round > 2 {
		return nil // only the first iteration is attacked
	}
	values := honestEchoValues(honest)
	vstar, _, ok := splitTarget(values, a.N-2*a.T)
	if !ok {
		return nil
	}
	msgs := make([]sim.Message, 0, a.T*env.N())
	for from := 0; from < a.T; from++ {
		for to := 0; to < env.N(); to++ {
			if env.IsCorrupted(to) {
				continue
			}
			p := proxcensus.EchoPayload{Z: vstar, H: 0}
			if round == 2 {
				p.H = 1
			}
			if to == a.Victim {
				p = proxcensus.EchoPayload{Z: 1 - vstar, H: 0}
			}
			msgs = append(msgs, sim.Message{From: from, To: to, Payload: p})
		}
	}
	return msgs
}

// honestVoteValues extracts each honest sender's current value from the
// linear protocol's round-1 votes.
func honestVoteValues(honest []sim.Message) map[sim.PartyID]proxcensus.Value {
	values := make(map[sim.PartyID]proxcensus.Value)
	for _, m := range honest {
		if p, ok := m.Payload.(proxcensus.LinearVote); ok {
			if _, seen := values[m.From]; !seen {
				values[m.From] = p.V
			}
		}
	}
	return values
}

// LinearAdaptiveSplit attacks the linear-Proxcensus BA protocols (the
// t < n/2 iterated Prox_5 protocol and the MV baseline). At each
// iteration's first round it picks a target honest party and secretly
// completes the threshold signature Σ_{v*} for it (round 1) and the
// proof Ω_{v*} (round 2), telling nobody else. The target finishes one
// slot above the other honest parties, who learn both certificates one
// round late via the target's own forwarding.
type LinearAdaptiveSplit struct {
	// N, T mirror the execution parameters.
	N, T int
	// Period is the protocol's rounds per iteration (3 for the paper's
	// t < n/2 protocol, 2 for MV).
	Period int
	// Keys are the corrupted parties' secret keys for the (n-t)-of-n
	// scheme (indices 0..t-1).
	Keys []*threshsig.SecretKey

	vstar  proxcensus.Value
	target sim.PartyID
	active bool
}

var _ sim.Adversary = (*LinearAdaptiveSplit)(nil)

// Name implements sim.Adversary.
func (a *LinearAdaptiveSplit) Name() string { return "linear-adaptive-split" }

// Init implements sim.Adversary.
func (a *LinearAdaptiveSplit) Init(env *sim.Env) { CorruptSet(env, FirstT(a.T)) }

// Act implements sim.Adversary.
func (a *LinearAdaptiveSplit) Act(round int, honest []sim.Message, env *sim.Env) []sim.Message {
	local := localRound(round, a.Period)
	if local == 1 {
		// The target's own share plus the holders' and our t must reach
		// the n-t threshold, so v* needs n-2t honest holders; at the
		// extremal n = 2t+1 (where this attack is sharpest) any value
		// with a single honest holder qualifies.
		need := a.N - 2*a.T
		if need < 1 {
			need = 1
		}
		a.vstar, a.target, a.active = splitTarget(honestVoteValues(honest), need)
	}
	if !a.active {
		return nil
	}
	msgs := make([]sim.Message, 0, a.T)
	switch local {
	case 1:
		for i := 0; i < a.T; i++ {
			msgs = append(msgs, sim.Message{From: i, To: a.target, Payload: proxcensus.LinearVote{
				V:     a.vstar,
				Share: threshsig.SignShare(a.Keys[i], proxcensus.LinearSigmaMessage(a.vstar)),
			}})
		}
	case 2:
		for i := 0; i < a.T; i++ {
			msgs = append(msgs, sim.Message{From: i, To: a.target, Payload: proxcensus.LinearOmegaShare{
				V:     a.vstar,
				Share: threshsig.SignShare(a.Keys[i], proxcensus.LinearOmegaMessage(a.vstar)),
			}})
		}
	}
	return msgs
}
