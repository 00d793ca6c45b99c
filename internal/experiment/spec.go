// Package experiment holds every experiment cmd/proxlab runs: the
// paper tables (paper.go, registered by id in PaperTables), the
// conformance sweep and replay (conform.go), and declarative TCP sweep
// grids. A Spec names a protocol family, an (n, t) frame, a fault-level
// sweep (exact faulty-node counts 0→t via chaos.GenerateFaulty, or one
// explicit schedule), a network latency model and a seed list, and
// compiles each grid cell down to the existing chaos/transport
// machinery. Every trial is wrapped in a mandatory timeout, every
// parameter is validated before any socket opens, and the analysis
// layer tolerates partial output: a trial is classified decided,
// degraded or timed-out instead of wedging the sweep. All of them
// render through one Table.
package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"proxcensus/internal/ba"
	"proxcensus/internal/chaos"
	"proxcensus/internal/quorum"
	"proxcensus/internal/transport"
)

// Protocol families a spec can sweep.
const (
	// FamilyExpand is the standalone r-round expand Proxcensus
	// (t < n/3, graded output).
	FamilyExpand = "expand"
	// FamilyOneShot is the κ+1-round one-shot BA (t < n/3).
	FamilyOneShot = "oneshot"
	// FamilyHalf is the 3⌈κ/2⌉-round t < n/2 BA.
	FamilyHalf = "half"
)

// Families lists the runnable families in canonical order.
func Families() []string { return []string{FamilyExpand, FamilyOneShot, FamilyHalf} }

// Default knobs applied by Validate when a spec leaves them zero.
const (
	// DefaultRoundTimeout bounds one synchronous round on localhost.
	DefaultRoundTimeout = 500 * time.Millisecond
	// DefaultInput is the common honest input when the spec omits it.
	DefaultInput = 1
)

// Spec declares one experiment: a sweep grid of
// family × (n, t) × fault level × network model × seeds. The zero
// value of optional fields selects documented defaults; Validate
// rejects everything else before a single socket opens.
type Spec struct {
	// Name labels the experiment; artifacts are named after it.
	Name string `json:"name"`
	// Family selects the protocol: "expand", "oneshot" or "half".
	Family string `json:"family"`
	// N and T frame the execution; the family's quorum bound is
	// enforced (3t < n for expand/oneshot, 2t < n for half).
	N int `json:"n"`
	T int `json:"t"`
	// Kappa is the security parameter of the BA families (ignored by
	// expand). Must be >= 1 where used.
	Kappa int `json:"kappa,omitempty"`
	// Rounds is the expand round count (ignored by the BA families,
	// whose budgets derive from Kappa). Must be >= 1 where used.
	Rounds int `json:"rounds,omitempty"`
	// Input is the common honest input, 0 or 1. Defaults to 1 (so
	// validity is checkable: survivors must decide it).
	Input *int `json:"input,omitempty"`

	// FaultsFrom..FaultsTo sweeps exact faulty-node counts. FaultsTo
	// of -1 resolves to T; both default to 0. Each level generates
	// one schedule per seed via chaos.GenerateFaulty.
	FaultsFrom int `json:"faults_from,omitempty"`
	FaultsTo   int `json:"faults_to,omitempty"`
	// Schedule, when set, replaces the generated sweep entirely: the
	// grid becomes this one parsed schedule × seeds. Mutually
	// exclusive with a nonzero FaultsFrom/FaultsTo.
	Schedule string `json:"schedule,omitempty"`

	// Seeds lists explicit trial seeds; alternatively SeedCount seeds
	// starting at SeedBase (SeedBase, SeedBase+1, ...). Exactly one
	// of the two forms must be used.
	Seeds     []int64 `json:"seeds,omitempty"`
	SeedCount int     `json:"seed_count,omitempty"`
	SeedBase  int64   `json:"seed_base,omitempty"`

	// Network names a transport latency model ("lan", "wan", "sat");
	// empty runs without one. Each trial's model seed is NetworkSeed
	// mixed with the trial seed, so latency varies across trials but
	// replays exactly.
	Network     string `json:"network,omitempty"`
	NetworkSeed int64  `json:"network_seed,omitempty"`

	// RoundTimeoutMS bounds one synchronous round (default 500).
	RoundTimeoutMS int `json:"round_timeout_ms,omitempty"`
	// TrialTimeoutMS is the mandatory per-trial watchdog. Zero derives
	// (rounds+2) × 4 × round timeout, clamped to at least 10s.
	TrialTimeoutMS int `json:"trial_timeout_ms,omitempty"`
}

// ParseSpec decodes a JSON spec, rejecting unknown fields (a typo'd
// knob must fail pre-flight, not silently no-op) and validating.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("experiment: decode spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ProtocolRounds returns the family's round budget for this spec.
func (s *Spec) ProtocolRounds() int {
	switch s.Family {
	case FamilyExpand:
		return s.Rounds
	case FamilyOneShot:
		return ba.OneShotRounds(s.Kappa)
	case FamilyHalf:
		return ba.HalfRounds(s.Kappa)
	default:
		return 0
	}
}

// InputValue returns the common honest input (default 1).
func (s *Spec) InputValue() int {
	if s.Input == nil {
		return DefaultInput
	}
	return *s.Input
}

// RoundTimeout returns the per-round deadline.
func (s *Spec) RoundTimeout() time.Duration {
	if s.RoundTimeoutMS > 0 {
		return time.Duration(s.RoundTimeoutMS) * time.Millisecond
	}
	return DefaultRoundTimeout
}

// TrialTimeout returns the mandatory per-trial watchdog: the spec's
// explicit value, or a budget derived from the round count with a 10s
// floor. Timeout wrapping is not optional — a wedged trial must
// classify as timed-out, never hang the sweep.
func (s *Spec) TrialTimeout() time.Duration {
	if s.TrialTimeoutMS > 0 {
		return time.Duration(s.TrialTimeoutMS) * time.Millisecond
	}
	d := time.Duration(s.ProtocolRounds()+2) * 4 * s.RoundTimeout()
	if d < 10*time.Second {
		d = 10 * time.Second
	}
	return d
}

// faultsTo resolves the sweep's upper fault level (-1 → T).
func (s *Spec) faultsTo() int {
	if s.FaultsTo == -1 {
		return s.T
	}
	return s.FaultsTo
}

// SeedList materializes the trial seeds in grid order.
func (s *Spec) SeedList() []int64 {
	if len(s.Seeds) > 0 {
		return append([]int64(nil), s.Seeds...)
	}
	out := make([]int64, s.SeedCount)
	for i := range out {
		out[i] = s.SeedBase + int64(i)
	}
	return out
}

// Validate is the pre-flight check: every parameter the run would
// consume is verified before any socket opens, so a bad spec fails in
// microseconds with a pointed error instead of stalling mid-sweep.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("experiment: spec needs a name")
	}
	switch s.Family {
	case FamilyExpand:
		if s.Rounds < 1 {
			return fmt.Errorf("experiment: %s: expand needs rounds >= 1 (got %d)", s.Name, s.Rounds)
		}
	case FamilyOneShot, FamilyHalf:
		if s.Kappa < 1 {
			return fmt.Errorf("experiment: %s: %s needs kappa >= 1 (got %d)", s.Name, s.Family, s.Kappa)
		}
	default:
		return fmt.Errorf("experiment: %s: unknown family %q (know %v)", s.Name, s.Family, Families())
	}
	if s.N < 2 || s.T < 0 || s.T >= s.N {
		return fmt.Errorf("experiment: %s: invalid frame n=%d t=%d", s.Name, s.N, s.T)
	}
	switch s.Family {
	case FamilyHalf:
		if !quorum.TolerateHalf(s.N, s.T) {
			return fmt.Errorf("experiment: %s: %s requires 2t < n, got n=%d t=%d", s.Name, s.Family, s.N, s.T)
		}
	default:
		if !quorum.TolerateThird(s.N, s.T) {
			return fmt.Errorf("experiment: %s: %s requires 3t < n, got n=%d t=%d", s.Name, s.Family, s.N, s.T)
		}
	}
	if v := s.InputValue(); v != 0 && v != 1 {
		return fmt.Errorf("experiment: %s: input must be 0 or 1 (got %d)", s.Name, v)
	}
	if s.FaultsTo < -1 || s.FaultsFrom < 0 {
		return fmt.Errorf("experiment: %s: invalid fault sweep %d..%d", s.Name, s.FaultsFrom, s.FaultsTo)
	}
	to := s.faultsTo()
	if to < s.FaultsFrom {
		return fmt.Errorf("experiment: %s: empty fault sweep %d..%d", s.Name, s.FaultsFrom, to)
	}
	if to > s.T {
		return fmt.Errorf("experiment: %s: fault sweep up to %d exceeds budget t=%d", s.Name, to, s.T)
	}
	if s.Schedule != "" {
		if s.FaultsFrom != 0 || (s.FaultsTo != 0 && s.FaultsTo != -1) {
			return fmt.Errorf("experiment: %s: an explicit schedule replaces the fault sweep; drop faults_from/faults_to", s.Name)
		}
		if _, err := chaos.Parse(s.Schedule, s.N, s.T, s.ProtocolRounds()); err != nil {
			return fmt.Errorf("experiment: %s: schedule: %w", s.Name, err)
		}
	}
	switch {
	case len(s.Seeds) > 0 && s.SeedCount > 0:
		return fmt.Errorf("experiment: %s: use either seeds or seed_count, not both", s.Name)
	case len(s.Seeds) == 0 && s.SeedCount < 1:
		return fmt.Errorf("experiment: %s: need explicit seeds or seed_count >= 1", s.Name)
	}
	if s.Network != "" {
		if _, ok := transport.LookupNetModel(s.Network, 0); !ok {
			return fmt.Errorf("experiment: %s: unknown network model %q (know %v)", s.Name, s.Network, transport.NetModelNames())
		}
	}
	if s.RoundTimeoutMS < 0 {
		return fmt.Errorf("experiment: %s: round_timeout_ms must be positive (got %d)", s.Name, s.RoundTimeoutMS)
	}
	if s.TrialTimeoutMS < 0 {
		return fmt.Errorf("experiment: %s: trial_timeout_ms must be positive (got %d)", s.Name, s.TrialTimeoutMS)
	}
	if rt, tt := s.RoundTimeout(), s.TrialTimeout(); tt <= rt {
		return fmt.Errorf("experiment: %s: trial timeout %s must exceed the round timeout %s", s.Name, tt, rt)
	}
	return nil
}

// Trial is one grid cell: a fault level, a seed, and the concrete
// schedule the pair compiles to.
type Trial struct {
	// Index is the trial's position in grid order.
	Index int
	// Faults is the exact faulty-node count of the schedule.
	Faults int
	// Seed drove the schedule (and the trial's setup randomness).
	Seed int64
	// Schedule is the compiled fault schedule, network model attached.
	Schedule chaos.Schedule
}

// Trials compiles the spec's grid in deterministic order: fault levels
// ascending, seeds in list order. The same spec always yields the same
// trials — reproducibility is the whole point.
func (s *Spec) Trials() ([]Trial, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rounds := s.ProtocolRounds()
	seeds := s.SeedList()
	var out []Trial
	appendTrial := func(faults int, seed int64, sched chaos.Schedule) {
		if s.Network != "" {
			sched = sched.WithNetwork(s.Network, s.NetworkSeed^seed)
		}
		out = append(out, Trial{Index: len(out), Faults: faults, Seed: seed, Schedule: sched})
	}
	if s.Schedule != "" {
		sched, err := chaos.Parse(s.Schedule, s.N, s.T, rounds)
		if err != nil {
			return nil, err
		}
		for _, seed := range seeds {
			appendTrial(len(sched.FaultyNodes()), seed, sched)
		}
		return out, nil
	}
	for faults := s.FaultsFrom; faults <= s.faultsTo(); faults++ {
		for _, seed := range seeds {
			appendTrial(faults, seed, chaos.GenerateFaulty(s.N, s.T, rounds, seed, faults))
		}
	}
	return out, nil
}
