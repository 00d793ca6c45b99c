// Package chaos builds seeded fault schedules and runs them end-to-end
// over the TCP transport. A Schedule is a deterministic
// transport.FaultInjector generated from (n, t, rounds, seed) — the
// same seed always yields the same faults, so every chaos failure is
// replayable from its printed spec — and since a chaos run and the
// proxserve daemon share one transport, the same Schedule drops into a
// service as service.Config.Faults. Schedules mix benign
// deployment faults (crash-stop, connection drops, send delays,
// duplicated frames, partitions) with Byzantine nodes: parties that
// hold their authenticated slot but speak the wire format maliciously,
// in a Role adapted from the simulator's adversaries
// (internal/adversary) or native to the wire (wrong-round frames,
// duplicate floods, malformed bytes). Byzantine behaviour is itself
// seeded from the schedule, so replays reproduce attacks byte for
// byte. The adaptive rushing adversary of the proofs stays in the
// deterministic simulator (internal/sim), which can reorder deliveries
// a real hub cannot.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"proxcensus/internal/transport"
)

// Kind classifies one scheduled fault.
type Kind int

// Fault kinds, in canonical spec order.
const (
	// Crash crash-stops a node at a round: it halts before sending that
	// round's batch and never recovers.
	Crash Kind = iota + 1
	// Drop severs a node's connection at the start of a round; the node
	// reconnects with bounded backoff.
	Drop
	// Delay postpones a node's send in one round by a fixed duration.
	Delay
	// Dup makes a node transmit one round's batch frame twice.
	Dup
	// Partition cuts all links between a node set and the rest for a
	// round range (inclusive).
	Partition
	// Byz runs a node as a Byzantine attacker for the whole execution,
	// playing the strategy named by the fault's Role.
	Byz
	// Churn takes a node offline before it sends round Round — it
	// bounces its connection — and rejoins it for round Until's delivery;
	// through round Until its slot delivers empty.
	Churn
	// Net applies a named seeded network latency model (see
	// transport.NetModelNames) to every node's sends for the whole
	// execution. At most one per schedule; Node and Round are unused.
	Net
)

// String implements fmt.Stringer using the spec grammar's keywords.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Dup:
		return "dup"
	case Partition:
		return "part"
	case Byz:
		return "byz"
	case Churn:
		return "churn"
	case Net:
		return "net"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Role names a Byzantine node's wire-level attack strategy.
type Role string

// Byzantine roles: wire-level counterparts of the simulator's
// adversaries plus attacks that only exist on a real wire. Every role
// draws its randomness from the schedule digest, so identical
// schedules replay identical attacks.
const (
	// RoleEquivocate sends conflicting payloads of the same class to the
	// same receivers each round (echo pairs and vote pairs).
	RoleEquivocate Role = "equivocate"
	// RoleGarbage sends wild decodable payloads (out-of-domain values,
	// forged shares) mixed with undecodable bytes.
	RoleGarbage Role = "garbage"
	// RoleReplay re-broadcasts payloads it received in the previous
	// round, like the simulator's replay adversary.
	RoleReplay Role = "replay"
	// RoleStraddle adapts the simulator's slot-straddle: it boosts the
	// lowest honest node with a high-graded 1 and feeds 0 to the rest.
	RoleStraddle Role = "straddle"
	// RoleWrongRound prefixes each round's real batch with a stale frame
	// tagged for the previous round.
	RoleWrongRound Role = "wronground"
	// RoleDupFlood floods each round with hundreds of identical entries,
	// exercising the hub's flood cap and the ingress duplicate collapse.
	RoleDupFlood Role = "dupflood"
	// RoleMalformed sends batches whose payload bytes do not decode.
	RoleMalformed Role = "malformed"
)

// Roles lists every Byzantine role in canonical order.
func Roles() []Role {
	return []Role{RoleEquivocate, RoleGarbage, RoleReplay, RoleStraddle, RoleWrongRound, RoleDupFlood, RoleMalformed}
}

// roleKnown reports whether r is a defined role.
func roleKnown(r Role) bool {
	for _, k := range Roles() {
		if k == r {
			return true
		}
	}
	return false
}

// Fault is one scheduled fault. Node/Round describe the strike point
// for Crash, Drop, Delay and Dup; Partition uses Side and the round
// range [Round, Until] instead.
type Fault struct {
	// Kind classifies the fault.
	Kind Kind
	// Node is the struck node (unused for Partition).
	Node int
	// Round is the strike round (the first affected round for
	// Partition).
	Round int
	// Until is the last affected round of a Partition, inclusive.
	Until int
	// Dur is the send delay of a Delay fault.
	Dur time.Duration
	// Side is the node set a Partition isolates from everyone else.
	Side []int
	// Role is the attack strategy of a Byz fault, which covers the whole
	// execution (Round and Until are unused).
	Role Role
	// Model names the latency distribution of a Net fault.
	Model string
	// Seed drives the latency draws of a Net fault.
	Seed int64
}

// spec renders the fault in the replayable grammar.
func (f Fault) spec() string {
	switch f.Kind {
	case Delay:
		return fmt.Sprintf("delay:%d@%d+%s", f.Node, f.Round, f.Dur)
	case Partition:
		side := make([]string, len(f.Side))
		for i, v := range f.Side {
			side[i] = strconv.Itoa(v)
		}
		return fmt.Sprintf("part:%s@%d-%d", strings.Join(side, ","), f.Round, f.Until)
	case Byz:
		return fmt.Sprintf("byz:%d@%s", f.Node, f.Role)
	case Churn:
		return fmt.Sprintf("churn:%d@%d-%d", f.Node, f.Round, f.Until)
	case Net:
		return fmt.Sprintf("net:%s@%d", f.Model, f.Seed)
	default:
		return fmt.Sprintf("%s:%d@%d", f.Kind, f.Node, f.Round)
	}
}

// anchor returns the node used for canonical ordering.
func (f Fault) anchor() int {
	if f.Kind == Partition && len(f.Side) > 0 {
		return f.Side[0]
	}
	return f.Node
}

// sortFaults puts faults into the canonical spec order.
func sortFaults(fs []Fault) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.anchor() != b.anchor() {
			return a.anchor() < b.anchor()
		}
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Until != b.Until {
			return a.Until < b.Until
		}
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Dur < b.Dur
	})
}

// Schedule is a complete fault schedule for one (n, t, rounds)
// execution. It implements transport.FaultInjector: every method is a
// pure function of the fault list, so hub and nodes can share one
// value concurrently and replays are exact.
type Schedule struct {
	// N, T, Rounds mirror the execution the schedule targets.
	N, T, Rounds int
	// Faults holds the schedule in canonical order.
	Faults []Fault
}

// CrashRound implements transport.FaultInjector: the earliest
// scheduled crash round for the node, or 0.
func (s Schedule) CrashRound(id int) int {
	best := 0
	for _, f := range s.Faults {
		if f.Kind == Crash && f.Node == id && (best == 0 || f.Round < best) {
			best = f.Round
		}
	}
	return best
}

// DropConn implements transport.FaultInjector.
func (s Schedule) DropConn(id, round int) bool {
	for _, f := range s.Faults {
		if f.Kind == Drop && f.Node == id && f.Round == round {
			return true
		}
	}
	return false
}

// Delay implements transport.FaultInjector, summing all delays
// scheduled for the node in the round plus the network model's egress
// latency when the schedule carries a net segment.
func (s Schedule) Delay(id, round int) time.Duration {
	var total time.Duration
	for _, f := range s.Faults {
		if f.Kind == Delay && f.Node == id && f.Round == round {
			total += f.Dur
		}
	}
	if nm := s.NetModel(); nm != nil {
		total += nm.Egress(id, round, s.N)
	}
	return total
}

// Churn implements transport.FaultInjector: the node's crash-and-rejoin
// window, or (0, 0) when it never churns.
func (s Schedule) Churn(id int) (down, up int) {
	for _, f := range s.Faults {
		if f.Kind == Churn && f.Node == id {
			return f.Round, f.Until
		}
	}
	return 0, 0
}

// NetModel resolves the schedule's net segment into a seeded latency
// model, or nil when the schedule has none.
func (s Schedule) NetModel() *transport.NetModel {
	for _, f := range s.Faults {
		if f.Kind == Net {
			if m, ok := transport.LookupNetModel(f.Model, f.Seed); ok {
				return m
			}
		}
	}
	return nil
}

// WithNetwork returns a copy of the schedule carrying the named seeded
// network model, replacing any existing net segment.
func (s Schedule) WithNetwork(model string, seed int64) Schedule {
	faults := make([]Fault, 0, len(s.Faults)+1)
	for _, f := range s.Faults {
		if f.Kind != Net {
			faults = append(faults, f)
		}
	}
	faults = append(faults, Fault{Kind: Net, Model: model, Seed: seed})
	sortFaults(faults)
	s.Faults = faults
	return s
}

// Duplicate implements transport.FaultInjector.
func (s Schedule) Duplicate(id, round int) bool {
	for _, f := range s.Faults {
		if f.Kind == Dup && f.Node == id && f.Round == round {
			return true
		}
	}
	return false
}

// Partitioned implements transport.FaultInjector: a link is cut when
// some active partition has exactly one of its endpoints inside.
func (s Schedule) Partitioned(from, to, round int) bool {
	for _, f := range s.Faults {
		if f.Kind != Partition || round < f.Round || round > f.Until {
			continue
		}
		if inSide(f.Side, from) != inSide(f.Side, to) {
			return true
		}
	}
	return false
}

// inSide reports membership in a partition side.
func inSide(side []int, id int) bool {
	for _, v := range side {
		if v == id {
			return true
		}
	}
	return false
}

// ByzRole returns the Byzantine role scheduled for a node, if any.
func (s Schedule) ByzRole(id int) (Role, bool) {
	for _, f := range s.Faults {
		if f.Kind == Byz && f.Node == id {
			return f.Role, true
		}
	}
	return "", false
}

// ByzNodes returns the Byzantine nodes, sorted ascending.
func (s Schedule) ByzNodes() []int {
	var out []int
	for id := 0; id < s.N; id++ {
		if _, ok := s.ByzRole(id); ok {
			out = append(out, id)
		}
	}
	return out
}

// FaultyNodes returns the nodes charged against the corruption budget
// t — crash victims, partitioned nodes, churned nodes and Byzantine
// nodes — sorted ascending. Drop, delay and dup are benign: the
// transport must absorb them without the node missing a round.
func (s Schedule) FaultyNodes() []int {
	mark := make([]bool, s.N)
	for _, f := range s.Faults {
		switch f.Kind {
		case Crash, Byz, Churn:
			if f.Node >= 0 && f.Node < s.N {
				mark[f.Node] = true
			}
		case Partition:
			for _, v := range f.Side {
				if v >= 0 && v < s.N {
					mark[v] = true
				}
			}
		}
	}
	var out []int
	for id, m := range mark {
		if m {
			out = append(out, id)
		}
	}
	return out
}

// Spec renders the schedule in the replayable grammar, e.g.
// "crash:3@2;drop:1@2;delay:0@1+50ms;part:4@2-3". Parse inverts it.
func (s Schedule) Spec() string {
	parts := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.spec()
	}
	return strings.Join(parts, ";")
}

// Fingerprint returns a stable digest of the schedule, including its
// (n, t, rounds) frame — two schedules collide only if they would
// inject identical faults into identical executions.
func (s Schedule) Fingerprint() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("chaos n=%d t=%d rounds=%d|%s", s.N, s.T, s.Rounds, s.Spec())))
	return hex.EncodeToString(h[:])
}

// Validate checks the schedule against its execution frame: nodes in
// range, rounds within budget, partitions well-formed, Byzantine roles
// known, and at most T faulty (crashed, partitioned or Byzantine)
// nodes.
func (s Schedule) Validate() error {
	if s.N <= 0 || s.T < 0 || s.Rounds < 0 {
		return fmt.Errorf("chaos: invalid frame n=%d t=%d rounds=%d", s.N, s.T, s.Rounds)
	}
	byz := make([]bool, s.N)
	churn := make([]bool, s.N)
	netSeen := false
	for _, f := range s.Faults {
		if f.Kind == Net {
			// One network model governs the whole execution; it must be a
			// name the transport knows.
			if _, ok := transport.LookupNetModel(f.Model, f.Seed); !ok {
				return fmt.Errorf("chaos: fault %q: unknown network model %q (know %v)", f.spec(), f.Model, transport.NetModelNames())
			}
			if netSeen {
				return fmt.Errorf("chaos: fault %q: schedule already has a network model", f.spec())
			}
			netSeen = true
			continue
		}
		if f.Kind == Churn {
			// A churn window must open and close strictly inside the
			// execution: the node misses rounds Round..Until-1 and is back
			// for Until's delivery.
			if f.Node < 0 || f.Node >= s.N {
				return fmt.Errorf("chaos: fault %q node out of range 0..%d", f.spec(), s.N-1)
			}
			if f.Round < 1 || f.Until <= f.Round || f.Until > s.Rounds {
				return fmt.Errorf("chaos: fault %q window must satisfy 1 <= down < up <= %d", f.spec(), s.Rounds)
			}
			if churn[f.Node] {
				return fmt.Errorf("chaos: fault %q: node %d already churns", f.spec(), f.Node)
			}
			churn[f.Node] = true
			continue
		}
		if f.Kind == Byz {
			// Byzantine faults span the whole execution: one known role per
			// node, no round tag, and no separate crash (a Byzantine node
			// that wants to fall silent simply stops sending).
			if f.Node < 0 || f.Node >= s.N {
				return fmt.Errorf("chaos: fault %q node out of range 0..%d", f.spec(), s.N-1)
			}
			if !roleKnown(f.Role) {
				return fmt.Errorf("chaos: fault %q: unknown role %q", f.spec(), f.Role)
			}
			if byz[f.Node] {
				return fmt.Errorf("chaos: fault %q: node %d already has a byzantine role", f.spec(), f.Node)
			}
			byz[f.Node] = true
			continue
		}
		if f.Round < 1 || f.Round > s.Rounds {
			return fmt.Errorf("chaos: fault %q round out of range 1..%d", f.spec(), s.Rounds)
		}
		if f.Kind == Partition {
			if len(f.Side) == 0 || len(f.Side) >= s.N {
				return fmt.Errorf("chaos: fault %q must isolate a strict non-empty subset", f.spec())
			}
			if f.Until < f.Round || f.Until > s.Rounds {
				return fmt.Errorf("chaos: fault %q until out of range %d..%d", f.spec(), f.Round, s.Rounds)
			}
			for _, v := range f.Side {
				if v < 0 || v >= s.N {
					return fmt.Errorf("chaos: fault %q node %d out of range", f.spec(), v)
				}
			}
			continue
		}
		if f.Node < 0 || f.Node >= s.N {
			return fmt.Errorf("chaos: fault %q node out of range 0..%d", f.spec(), s.N-1)
		}
		if f.Kind == Delay && f.Dur <= 0 {
			return fmt.Errorf("chaos: fault %q needs a positive delay", f.spec())
		}
	}
	for _, f := range s.Faults {
		if f.Kind == Crash && byz[f.Node] {
			return fmt.Errorf("chaos: fault %q: node %d is byzantine and cannot also crash", f.spec(), f.Node)
		}
		if f.Kind == Crash && churn[f.Node] {
			return fmt.Errorf("chaos: fault %q: node %d churns and cannot also crash", f.spec(), f.Node)
		}
		if f.Kind == Churn && byz[f.Node] {
			return fmt.Errorf("chaos: fault %q: node %d is byzantine and cannot also churn", f.spec(), f.Node)
		}
	}
	if faulty := s.FaultyNodes(); len(faulty) > s.T {
		return fmt.Errorf("chaos: %d faulty nodes %v exceed budget t=%d", len(faulty), faulty, s.T)
	}
	return nil
}

// GenerateFaulty builds a random valid schedule for an (n, t, rounds)
// execution from a seed with exactly min(faulty, t) faulty nodes (zero
// stays zero), so degradation sweeps control their x-axis exactly: each
// victim crashes, is partitioned, churns (crash + rejoin, when the
// execution has at least two rounds) or turns Byzantine with a random
// role, plus a handful of benign drops, delays and duplicated frames on
// arbitrary nodes. No network segment is added — sweeps attach their
// model explicitly via WithNetwork so the latency distribution is a
// controlled variable. Identical arguments always yield an identical
// schedule.
func GenerateFaulty(n, t, rounds int, seed int64, faulty int) Schedule {
	rng := rand.New(rand.NewSource(seed))
	if faulty > t {
		faulty = t
	}
	var victims []int
	if faulty > 0 && rounds > 0 {
		victims = rng.Perm(n)[:faulty]
	}
	return generate(rng, n, t, rounds, victims)
}

// generate draws the fault mix for the given victims plus benign
// background noise, consuming rng deterministically.
func generate(rng *rand.Rand, n, t, rounds int, victims []int) Schedule {
	var faults []Fault
	if rounds > 0 && len(victims) > 0 {
		victims = append([]int(nil), victims...)
		sort.Ints(victims)
		roles := Roles()
		for _, v := range victims {
			kind := rng.Intn(4)
			if kind == 3 && rounds < 2 {
				kind = 0 // a churn window needs a round to come back in
			}
			switch kind {
			case 0:
				faults = append(faults, Fault{Kind: Crash, Node: v, Round: 1 + rng.Intn(rounds)})
			case 1:
				start := 1 + rng.Intn(rounds)
				faults = append(faults, Fault{
					Kind: Partition, Side: []int{v},
					Round: start, Until: start + rng.Intn(rounds-start+1),
				})
			case 2:
				faults = append(faults, Fault{Kind: Byz, Node: v, Role: roles[rng.Intn(len(roles))]})
			default:
				down := 1 + rng.Intn(rounds-1)
				up := down + 1 + rng.Intn(rounds-down)
				faults = append(faults, Fault{Kind: Churn, Node: v, Round: down, Until: up})
			}
		}
	}
	if rounds > 0 {
		for i, benign := 0, 1+rng.Intn(n); i < benign; i++ {
			node, round := rng.Intn(n), 1+rng.Intn(rounds)
			switch rng.Intn(3) {
			case 0:
				faults = append(faults, Fault{Kind: Drop, Node: node, Round: round})
			case 1:
				faults = append(faults, Fault{
					Kind: Delay, Node: node, Round: round,
					Dur: time.Duration(5+rng.Intn(46)) * time.Millisecond,
				})
			default:
				faults = append(faults, Fault{Kind: Dup, Node: node, Round: round})
			}
		}
	}
	sortFaults(faults)
	return Schedule{N: n, T: t, Rounds: rounds, Faults: faults}
}

// Parse inverts Spec for an (n, t, rounds) execution frame and
// validates the result. The grammar is semicolon-separated faults:
//
//	crash:NODE@ROUND
//	drop:NODE@ROUND
//	dup:NODE@ROUND
//	delay:NODE@ROUND+DURATION
//	part:NODE[,NODE...]@ROUND-ROUND
//	byz:NODE@ROLE
//	churn:NODE@ROUND-ROUND
//	net:MODEL@SEED
//
// Empty segments are ignored, so a trailing semicolon is fine.
func Parse(spec string, n, t, rounds int) (Schedule, error) {
	s := Schedule{N: n, T: t, Rounds: rounds}
	for _, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		f, err := parseFault(seg)
		if err != nil {
			return Schedule{}, err
		}
		s.Faults = append(s.Faults, f)
	}
	sortFaults(s.Faults)
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// parseFault parses one grammar segment.
func parseFault(seg string) (Fault, error) {
	kindStr, rest, ok := strings.Cut(seg, ":")
	if !ok {
		return Fault{}, fmt.Errorf("chaos: fault %q: want kind:detail", seg)
	}
	who, when, ok := strings.Cut(rest, "@")
	if !ok {
		return Fault{}, fmt.Errorf("chaos: fault %q: want node@round", seg)
	}
	switch kindStr {
	case "byz":
		node, err := strconv.Atoi(who)
		if err != nil {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad node: %v", seg, err)
		}
		// Role sanity is Validate's job; the grammar only needs the shape.
		return Fault{Kind: Byz, Node: node, Role: Role(when)}, nil
	case "net":
		// Model sanity is Validate's job here too.
		seed, err := strconv.ParseInt(when, 10, 64)
		if err != nil {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad seed: %v", seg, err)
		}
		return Fault{Kind: Net, Model: who, Seed: seed}, nil
	case "churn":
		node, err := strconv.Atoi(who)
		if err != nil {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad node: %v", seg, err)
		}
		downStr, upStr, ok := strings.Cut(when, "-")
		if !ok {
			return Fault{}, fmt.Errorf("chaos: fault %q: want round-round", seg)
		}
		f := Fault{Kind: Churn, Node: node}
		if f.Round, err = strconv.Atoi(downStr); err != nil {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad down round: %v", seg, err)
		}
		if f.Until, err = strconv.Atoi(upStr); err != nil {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad up round: %v", seg, err)
		}
		return f, nil
	case "crash", "drop", "dup", "delay":
		node, err := strconv.Atoi(who)
		if err != nil {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad node: %v", seg, err)
		}
		f := Fault{Node: node}
		switch kindStr {
		case "crash":
			f.Kind = Crash
		case "drop":
			f.Kind = Drop
		case "dup":
			f.Kind = Dup
		case "delay":
			f.Kind = Delay
			roundStr, durStr, ok := strings.Cut(when, "+")
			if !ok {
				return Fault{}, fmt.Errorf("chaos: fault %q: want round+duration", seg)
			}
			when = roundStr
			if f.Dur, err = time.ParseDuration(durStr); err != nil {
				return Fault{}, fmt.Errorf("chaos: fault %q: bad duration: %v", seg, err)
			}
		}
		if f.Round, err = strconv.Atoi(when); err != nil {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad round: %v", seg, err)
		}
		return f, nil
	case "part":
		f := Fault{Kind: Partition}
		for _, tok := range strings.Split(who, ",") {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return Fault{}, fmt.Errorf("chaos: fault %q: bad side node: %v", seg, err)
			}
			f.Side = append(f.Side, v)
		}
		fromStr, toStr, ok := strings.Cut(when, "-")
		if !ok {
			return Fault{}, fmt.Errorf("chaos: fault %q: want round-round", seg)
		}
		var err error
		if f.Round, err = strconv.Atoi(fromStr); err != nil {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad start round: %v", seg, err)
		}
		if f.Until, err = strconv.Atoi(toStr); err != nil {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad end round: %v", seg, err)
		}
		return f, nil
	default:
		return Fault{}, fmt.Errorf("chaos: fault %q: unknown kind %q", seg, kindStr)
	}
}
