package transport

import "time"

// FaultInjector decides which deployment faults strike a TCP
// execution. The transport consults it at fixed points of the one round
// loop every execution runs: MuxNode.RunInstance applies crash-stop,
// connection drops, send delays, frame duplication and churn to its own
// traffic; HubInstance.runRound applies partitions when routing and
// holds churned nodes' slots empty on the same schedule. Each
// instance consults it with its own round number, so in a service the
// same schedule strikes every instance. Implementations must be
// deterministic pure functions of their arguments (the chaos harness
// replays schedules by seed) and safe for concurrent use.
//
// The injector models benign deployment faults only — crashes,
// omissions and timing. Wire-level Byzantine behaviour (equivocation,
// forged payloads, floods) is NOT routed through this interface: the
// chaos harness runs malicious peers as standalone RawClient nodes
// (internal/chaos), and the adaptive rushing adversary of the proofs
// stays in the deterministic simulator (internal/sim,
// internal/adversary); see DESIGN.md "Threat model".
type FaultInjector interface {
	// CrashRound returns the round in which node id crash-stops (it
	// halts before sending that round's batch and never returns), or 0
	// if the node never crashes.
	CrashRound(id int) int
	// DropConn reports whether node id's connection drops at the start
	// of round r; the node re-dials with bounded backoff and a resume
	// hello. The connection is shared by all of the node's instances.
	DropConn(id, round int) bool
	// Delay returns how long node id delays its round-r send.
	Delay(id, round int) time.Duration
	// Duplicate reports whether node id transmits its round-r batch
	// frame twice; the hub must discard the duplicate.
	Duplicate(id, round int) bool
	// Partitioned reports whether the link from→to is cut during round
	// r; the hub silently drops crossing messages, exactly like the
	// simulator's message-dropping adversary.
	Partitioned(from, to, round int) bool
	// Churn returns node id's crash-plus-rejoin window (down, up): the
	// node bounces its connection before sending round down, sends and
	// receives nothing through round up-1 (the hub logs its death at
	// down and its slot delivers empty), receives round up's delivery
	// (the hub logs the rejoin), and resumes sending from round up+1.
	// Both sides read the window from the injector, so the rejoin round
	// never depends on connection timing. down == 0 means the node never
	// churns.
	Churn(id int) (down, up int)
}

// NoFaults is the identity injector: a fault-free execution.
type NoFaults struct{}

var _ FaultInjector = NoFaults{}

// CrashRound implements FaultInjector.
func (NoFaults) CrashRound(int) int { return 0 }

// DropConn implements FaultInjector.
func (NoFaults) DropConn(int, int) bool { return false }

// Delay implements FaultInjector.
func (NoFaults) Delay(int, int) time.Duration { return 0 }

// Duplicate implements FaultInjector.
func (NoFaults) Duplicate(int, int) bool { return false }

// Partitioned implements FaultInjector.
func (NoFaults) Partitioned(int, int, int) bool { return false }

// Churn implements FaultInjector.
func (NoFaults) Churn(int) (down, up int) { return 0, 0 }
