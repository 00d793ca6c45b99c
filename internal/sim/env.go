package sim

import "math/rand"

// Env is the adversary's handle on the execution. It enforces the
// corruption budget t and exposes the adversary's randomness source.
//
// Secret key material of corrupted parties is not brokered through Env:
// experiment code constructs adversaries with whatever key material they
// model access to (a corrupted party surrenders its keys). By convention
// — reviewed in tests — adversary implementations only ever use keys of
// parties they have corrupted.
type Env struct {
	n, t  int
	round int
	// corrupted[p] marks party p corrupted; count is how many are.
	corrupted []bool
	count     int
	rng       *rand.Rand
	tracer    Tracer
}

// newEnv builds the adversary environment for an execution.
func newEnv(n, t int, rng *rand.Rand, tracer Tracer) *Env {
	return &Env{
		n:         n,
		t:         t,
		corrupted: make([]bool, n),
		rng:       rng,
		tracer:    tracer,
	}
}

// N returns the number of parties.
func (e *Env) N() int { return e.n }

// T returns the corruption budget.
func (e *Env) T() int { return e.t }

// Round returns the current round (0 during Adversary.Init).
func (e *Env) Round() int { return e.round }

// RNG returns the adversary's seeded randomness source.
func (e *Env) RNG() *rand.Rand { return e.rng }

// Corrupt marks party p as corrupted and reports whether it succeeded.
// It fails if p is out of range, already corrupted, or the budget t is
// exhausted. Corrupting a party mid-round discards its in-flight
// messages of that round (strongly rushing); the adversary may inject
// replacements from p.
func (e *Env) Corrupt(p PartyID) bool {
	if p < 0 || p >= e.n || e.corrupted[p] || e.count >= e.t {
		return false
	}
	e.corrupted[p] = true
	e.count++
	e.tracer.Corrupted(e.round, p)
	return true
}

// IsCorrupted reports whether party p is currently corrupted; parties
// outside [0, n) never are.
func (e *Env) IsCorrupted(p PartyID) bool {
	return p >= 0 && p < len(e.corrupted) && e.corrupted[p]
}

// CorruptedCount returns the number of corrupted parties.
func (e *Env) CorruptedCount() int { return e.count }

// Budget returns how many additional parties may still be corrupted.
func (e *Env) Budget() int { return e.t - e.count }

// CorruptedSet returns a copy of the corrupted party set, sorted by
// party ID so adversaries iterating it behave identically across runs.
func (e *Env) CorruptedSet() []PartyID {
	out := make([]PartyID, 0, e.count)
	for p, c := range e.corrupted {
		if c {
			out = append(out, p)
		}
	}
	return out
}

// Adversary drives the corrupted parties. Implementations choose the
// (static or adaptive) corruption set via Env.Corrupt and fabricate the
// corrupted parties' traffic each round after observing all honest
// traffic of that round.
type Adversary interface {
	// Name identifies the strategy in experiment reports.
	Name() string
	// Init is called once before round 1; static corruptions and key
	// grabbing happen here.
	Init(env *Env)
	// Act is called every round with the honest messages already in
	// flight (rushing view). The returned messages are sent on behalf of
	// corrupted parties this round; the engine validates From against
	// the corrupted set and fixes Round. Messages from parties corrupted
	// during this call are dropped from the honest traffic (strongly
	// rushing) — Act must re-inject any it wants delivered. The view is
	// read-only and aliases a pooled engine buffer: implementations must
	// neither mutate it nor retain it past the call (the `noretain`
	// analyzer enforces this). In the other direction, the returned
	// slice may be a buffer the adversary owns and refills on its next
	// call: the engine copies what it delivers into inboxes and tracers
	// copy what they keep, so nothing reads it after the next Act.
	Act(round int, honest []Message, env *Env) []Message
}

// Passive is the empty adversary: no corruptions, no traffic. The
// execution is then a fault-free run.
type Passive struct{}

var _ Adversary = Passive{}

// Name implements Adversary.
func (Passive) Name() string { return "passive" }

// Init implements Adversary.
func (Passive) Init(*Env) {}

// Act implements Adversary.
func (Passive) Act(int, []Message, *Env) []Message { return nil }
