package transport

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"proxcensus/internal/validate"
)

// EventKind classifies one structured connection event.
type EventKind int

// Event kinds recorded by hub and nodes.
const (
	// EventDial records a successful dial + hello (node side) or an
	// admitted hello (hub side).
	EventDial EventKind = iota + 1
	// EventRetry records a failed dial attempt before a backoff wait.
	EventRetry
	// EventReconnect records a replacement connection (a resume hello)
	// taking over a node's slot.
	EventReconnect
	// EventReject records the hub refusing a connection: a malformed,
	// wrong-version, out-of-range or duplicate hello.
	EventReject
	// EventConnLost records a connection breaking mid-round.
	EventConnLost
	// EventStale records a stale or duplicated frame being discarded.
	EventStale
	// EventCrash records an injected crash-stop taking effect.
	EventCrash
	// EventDelay records an injected send delay taking effect.
	EventDelay
	// EventDup records an injected duplicate frame being sent.
	EventDup
	// EventPartition records messages dropped by an injected partition.
	EventPartition
	// EventDeath records the hub declaring a node dead: its round
	// deadline expired with no usable connection. From then on its
	// slots deliver empty.
	EventDeath
	// EventRound records a completed round barrier with its latency.
	EventRound
	// EventFlood records the hub truncating a node's round batch at the
	// flood cap; the detail carries the overflow count.
	EventFlood
	// EventChurn records an injected churn window opening: the node
	// goes offline and will attempt to rejoin.
	EventChurn
	// EventRejoin records a churned node's window closing; the node is
	// live again, and delivered to, from this round on.
	EventRejoin

	numEventKinds
)

// eventLogCap bounds how many entries of each kind one log records. A
// remote peer triggers events at will — garbage hellos, strays for
// finished instances, overflowing lanes, over-cap batches — and so
// does time alone: an idle connection is dropped and redialled every
// IdleTimeout. Past the cap an event is counted in Report.Suppressed
// instead of growing a long-lived endpoint's heap. Report.Dead and
// Report.RoundLatency are kept whole.
const eventLogCap = 64

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventDial:
		return "dial"
	case EventRetry:
		return "retry"
	case EventReconnect:
		return "reconnect"
	case EventReject:
		return "reject"
	case EventConnLost:
		return "conn-lost"
	case EventStale:
		return "stale-frame"
	case EventCrash:
		return "crash"
	case EventDelay:
		return "delay"
	case EventDup:
		return "dup-frame"
	case EventPartition:
		return "partition"
	case EventDeath:
		return "death"
	case EventRound:
		return "round-done"
	case EventFlood:
		return "flood"
	case EventChurn:
		return "churn"
	case EventRejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one structured entry in a transport execution log.
type Event struct {
	// Kind classifies the event.
	Kind EventKind
	// Node is the party the event concerns, or -1 when none (e.g. a
	// hello that never identified itself).
	Node int
	// Round is the round during which the event fired; 0 covers the
	// join phase.
	Round int
	// Elapsed carries the round latency for EventRound and is zero
	// otherwise. It reflects wall-clock timing and is excluded from
	// deterministic trace hashes.
	Elapsed time.Duration
	// Detail is a free-form human-readable annotation.
	Detail string
}

// String implements fmt.Stringer.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "r%d %s", e.Round, e.Kind)
	if e.Node >= 0 {
		fmt.Fprintf(&b, " node=%d", e.Node)
	}
	if e.Elapsed > 0 {
		fmt.Fprintf(&b, " elapsed=%s", e.Elapsed)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

// Report is an immutable snapshot of a transport execution's
// structured event log: per-connection events, which nodes the hub
// declared dead, and per-round barrier latencies.
type Report struct {
	// Events holds the log in record order.
	Events []Event
	// Dead marks the nodes the hub declared dead (hub reports only).
	Dead []bool
	// RoundLatency holds the hub's barrier latency per round, indexed
	// round-1 (hub reports only).
	RoundLatency []time.Duration
	// Suppressed counts the events that fired past the log's per-kind
	// cap and are therefore missing from Events.
	Suppressed int
	// Validation is the node's ingress-screening report (node reports
	// only; nil on hub reports).
	Validation *validate.Report

	// counts holds how many events of each kind fired, logged or not.
	counts [numEventKinds]int
}

// Count returns how many events of the given kind fired, including
// those suppressed past the log cap.
func (r Report) Count(kind EventKind) int {
	if kind < 0 || kind >= numEventKinds {
		return 0
	}
	return r.counts[kind]
}

// Deaths returns how many nodes the hub declared dead.
func (r Report) Deaths() int {
	n := 0
	for _, d := range r.Dead {
		if d {
			n++
		}
	}
	return n
}

// Summary renders a one-line digest of the execution.
func (r Report) Summary() string {
	var worst time.Duration
	for _, d := range r.RoundLatency {
		if d > worst {
			worst = d
		}
	}
	s := fmt.Sprintf("dials=%d retries=%d reconnects=%d rejects=%d deaths=%d rounds=%d worst-round=%s",
		r.Count(EventDial), r.Count(EventRetry), r.Count(EventReconnect),
		r.Count(EventReject), r.Deaths(), len(r.RoundLatency), worst)
	if n := r.Count(EventFlood); n > 0 {
		s += fmt.Sprintf(" floods=%d", n)
	}
	if r.Suppressed > 0 {
		s += fmt.Sprintf(" suppressed=%d", r.Suppressed)
	}
	if n := r.Count(EventRejoin); n > 0 {
		s += fmt.Sprintf(" rejoins=%d", n)
	}
	if r.Validation != nil {
		s += " ingress[" + r.Validation.Summary() + "]"
	}
	return s
}

// WriteLog writes the full event log in a line-oriented human-readable
// form.
func (r Report) WriteLog(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", r.Summary()); err != nil {
		return err
	}
	for _, e := range r.Events {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	if r.Validation != nil {
		for _, ev := range r.Validation.Evidence {
			if _, err := fmt.Fprintf(w, "equivocation %s\n", ev.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// MergeReports folds several execution reports into one: events and
// round latencies concatenate in argument order, a node dead in any
// report is dead in the merge, and event counts, suppressed counts and
// validation reports accumulate. It collapses the hub's, the instances'
// and the nodes' reports into one view of an execution or a service.
func MergeReports(reps ...Report) Report {
	var out Report
	var val *validate.Report
	for _, r := range reps {
		out.Events = append(out.Events, r.Events...)
		for len(out.Dead) < len(r.Dead) {
			out.Dead = append(out.Dead, false)
		}
		for i, d := range r.Dead {
			out.Dead[i] = out.Dead[i] || d
		}
		out.RoundLatency = append(out.RoundLatency, r.RoundLatency...)
		out.Suppressed += r.Suppressed
		for k, c := range r.counts {
			out.counts[k] += c
		}
		if r.Validation != nil {
			if val == nil {
				val = &validate.Report{}
			}
			val.Merge(*r.Validation)
		}
	}
	out.Validation = val
	return out
}

// eventLog is the mutable, concurrency-safe collector behind a Report.
type eventLog struct {
	mu         sync.Mutex
	events     []Event
	dead       []bool
	latency    []time.Duration
	counts     [numEventKinds]int // events per kind; the first eventLogCap are logged
	suppressed int
}

// newEventLog prepares a collector; n > 0 sizes the hub's death
// tracking, n == 0 suits node-side logs.
func newEventLog(n int) *eventLog {
	l := &eventLog{}
	if n > 0 {
		l.dead = make([]bool, n)
	}
	return l
}

// record counts one event and appends it, unless its kind already holds
// eventLogCap entries. The caller holds l.mu.
func (l *eventLog) record(e Event) {
	if l.counts[e.Kind]++; l.counts[e.Kind] > eventLogCap {
		l.suppressed++
		return
	}
	l.events = append(l.events, e)
}

// add records one event.
func (l *eventLog) add(kind EventKind, node, round int, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.record(Event{Kind: kind, Node: node, Round: round, Detail: detail})
}

// death records a node's death event and marks it dead.
func (l *eventLog) death(node, round int, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.record(Event{Kind: EventDeath, Node: node, Round: round, Detail: detail})
	if node >= 0 && node < len(l.dead) {
		l.dead[node] = true
	}
}

// revive records a churned node's rejoin and clears its dead mark.
func (l *eventLog) revive(node, round int, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.record(Event{Kind: EventRejoin, Node: node, Round: round, Detail: detail})
	if node >= 0 && node < len(l.dead) {
		l.dead[node] = false
	}
}

// markDead marks every node dead in the given per-node slice.
func (l *eventLog) markDead(dead []bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, d := range dead {
		l.dead[id] = l.dead[id] || d
	}
}

// roundDone records a completed round barrier and its latency.
func (l *eventLog) roundDone(round int, elapsed time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.record(Event{Kind: EventRound, Node: -1, Round: round, Elapsed: elapsed})
	l.latency = append(l.latency, elapsed)
}

// snapshot copies the collected state into an immutable Report.
func (l *eventLog) snapshot() Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Report{
		Events:       append([]Event(nil), l.events...),
		Dead:         append([]bool(nil), l.dead...),
		RoundLatency: append([]time.Duration(nil), l.latency...),
		Suppressed:   l.suppressed,
		counts:       l.counts,
	}
}
