// Package noretain exercises the noretain analyzer: Deliver and Act
// implementations that store the engine's message slice, a subslice, or
// a local alias of it, or append it as an element, are flagged; copying
// message values out is not.
package noretain

import "proxcensus/internal/sim"

// retainer stores the slice directly: the canonical violation.
type retainer struct {
	buf []sim.Message
}

func (m *retainer) Deliver(round int, in []sim.Message) []sim.Send {
	m.buf = in // want "stores the delivered message slice"
	return nil
}

// subslicer stores a subslice: same backing array, same bug.
type subslicer struct {
	tail []sim.Message
}

func (m *subslicer) Deliver(round int, in []sim.Message) []sim.Send {
	m.tail = in[1:] // want "stores the delivered message slice"
	return nil
}

// aliaser launders the slice through locals first.
type aliaser struct {
	kept []sim.Message
}

func (m *aliaser) Deliver(round int, in []sim.Message) []sim.Send {
	alias := in
	window := alias[:len(alias)/2]
	m.kept = window // want "stores the delivered message slice"
	return nil
}

// leaked is a package-level sink: retention without a receiver field.
var leaked []sim.Message

type globalLeak struct{}

func (globalLeak) Deliver(round int, in []sim.Message) []sim.Send {
	leaked = in // want "stores the delivered message slice"
	return nil
}

// mapper stows the slice in a container that outlives the call.
type mapper struct {
	byRound map[int][]sim.Message
}

func (m *mapper) Deliver(round int, in []sim.Message) []sim.Send {
	m.byRound[round] = in // want "stores the delivered message slice"
	return nil
}

// copier appends message VALUES — fresh backing array, no aliasing —
// and reads elements in place. Never flagged.
type copier struct {
	msgs []sim.Message
	last sim.Message
}

func (m *copier) Deliver(round int, in []sim.Message) []sim.Send {
	m.msgs = append(m.msgs[:0], in...)
	for _, msg := range in {
		m.last = msg
	}
	_ = in
	return nil
}

// annotated retains transiently and says so; the directive exempts the
// store.
type annotated struct {
	window []sim.Message
}

func (m *annotated) Deliver(round int, in []sim.Message) []sim.Send {
	//lint:retain cleared before the call returns
	m.window = in
	n := len(m.window)
	m.window = nil
	_ = n
	return nil
}

// absorber is not a Deliver implementation: out of the analyzer's
// scope even though it retains a message slice.
type absorber struct {
	buf []sim.Message
}

func (m *absorber) Absorb(in []sim.Message) {
	m.buf = in
}

// intDeliver is a Deliver of some unrelated interface: its parameter is
// not []sim.Message, so the aliasing rule does not apply.
type intDeliver struct {
	buf []int
}

func (m *intDeliver) Deliver(round int, in []int) []sim.Send {
	m.buf = in
	return nil
}

// appender keeps every round's inbox by appending the slice itself as
// an element: each kept entry is the same pooled buffer.
type appender struct {
	rounds [][]sim.Message
}

func (m *appender) Deliver(round int, in []sim.Message) []sim.Send {
	m.rounds = append(m.rounds, in) // want "Deliver stores the delivered message slice in an appended element of m.rounds"
	return nil
}

// viewKeeper is an adversary that keeps its rushing view of the honest
// traffic: the engine's pooled honest buffer, refilled next round.
type viewKeeper struct {
	last []sim.Message
}

func (a *viewKeeper) Act(round int, honest []sim.Message, env *sim.Env) []sim.Message {
	a.last = honest // want "Act stores the observed honest message slice in a.last"
	return nil
}

// viewHistorian appends each round's view to a history.
type viewHistorian struct {
	history [][]sim.Message
}

func (a *viewHistorian) Act(round int, honest []sim.Message, env *sim.Env) []sim.Message {
	a.history = append(a.history, honest) // want "Act stores the observed honest message slice in an appended element of a.history"
	return nil
}

// viewTail keeps a subslice of the view.
type viewTail struct {
	tail []sim.Message
}

func (a *viewTail) Act(round int, honest []sim.Message, env *sim.Env) []sim.Message {
	if len(honest) == 0 {
		return nil
	}
	rest := honest[1:]
	a.tail = rest // want "Act stores the observed honest message slice in a.tail"
	return nil
}

// replayer re-badges observed messages as its own: it copies message
// values (and their immutable payloads) into a buffer it owns, which it
// may return and refill next round. Never flagged.
type replayer struct {
	victim sim.PartyID
	seen   []sim.Message
	out    []sim.Message
}

func (a *replayer) Act(round int, honest []sim.Message, env *sim.Env) []sim.Message {
	a.seen = append(a.seen[:0], honest...)
	out := a.out[:0]
	for i := range honest {
		src := honest[i]
		out = append(out, sim.Message{From: a.victim, To: src.To, Payload: src.Payload})
	}
	a.out = out
	return out
}

// actor has an Act of some unrelated interface: no []sim.Message
// parameter, so nothing is checked.
type actor struct {
	buf []int
}

func (a *actor) Act(round int, in []int) {
	a.buf = in
}
