package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
)

// Errors returned by Run.
var (
	// ErrBadConfig indicates inconsistent engine configuration.
	ErrBadConfig = errors.New("sim: invalid configuration")
	// ErrNoOutput indicates an honest machine had no output after the
	// final round.
	ErrNoOutput = errors.New("sim: machine produced no output")
	// ErrForgedSender indicates the adversary attempted to send a
	// message from an honest party (channels are authenticated).
	ErrForgedSender = errors.New("sim: adversary message from honest sender")
)

// Config parameterizes a synchronous execution.
type Config struct {
	// N is the number of parties; machines must have length N.
	N int
	// T is the adversary's corruption budget.
	T int
	// Rounds is the exact number of synchronous rounds to execute
	// (the protocols in this repository are fixed-round).
	Rounds int
	// Seed drives the adversary's randomness source. Executions are
	// fully deterministic given (machines, adversary, Seed).
	Seed int64
	// Tracer, if non-nil, observes the execution.
	Tracer Tracer
}

// Result is the outcome of an execution.
type Result struct {
	// Outputs holds each honest party's protocol output; corrupted
	// parties have no entry.
	Outputs map[PartyID]any
	// Corrupted is the final corrupted set, sorted.
	Corrupted []PartyID
	// Metrics meters the execution's cost.
	Metrics Metrics
}

// HonestOutputs returns the outputs of honest parties sorted by party ID.
func (r *Result) HonestOutputs() []any {
	ids := make([]PartyID, 0, len(r.Outputs))
	//lint:ordered keys sorted below
	for id := range r.Outputs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]any, 0, len(ids))
	for _, id := range ids {
		out = append(out, r.Outputs[id])
	}
	return out
}

// engine holds one execution's state and its pooled buffers. All
// per-round scratch (the shared honest-send buffer, per-party inboxes,
// per-sender metric subtotals) is allocated once and reused across
// rounds, so the steady-state round loop allocates nothing of its own —
// which is also why machines must not retain delivered slices (see
// Machine.Deliver).
type engine struct {
	cfg      Config
	machines []Machine
	adv      Adversary
	env      *Env
	tracer   Tracer

	// pending[p] holds party p's sends for the upcoming round.
	pending [][]Send
	// honest is the pooled shared buffer of expanded honest messages,
	// refilled each round in ascending (party, send, recipient) order.
	honest []Message
	// offsets[p] is the start of party p's span in honest; offsets[n]
	// is the round's total.
	offsets []int
	// subtotal[p] meters party p's sends of the current round; folded
	// into the round metrics only for parties still honest after the
	// adversary moved (strongly rushing drops).
	subtotal []RoundMetrics
	// inbox[p] is party p's pooled delivery buffer.
	inbox [][]Message
	// honestTo[p] counts the round's surviving honest unicasts to p and
	// honestBroadcasts the surviving honest broadcasts, so each inbox is
	// sized exactly before it is filled.
	honestTo         []int
	honestBroadcasts int
	// advFlat holds the round's adversary messages bucketed by
	// recipient: bucket p is advFlat[advStart[p]:advStart[p+1]], in
	// stable sender order. bySender and advOrder are the counting sort's
	// scratch.
	advFlat  []Message
	advStart []int
	bySender []int
	advOrder []int
}

// Run executes machines for cfg.Rounds synchronous rounds against adv.
//
// Per round r: honest machines' round-r messages are collected first
// (Phase 1); the adversary observes them and answers with the corrupted
// parties' round-r messages (Phase 2, rushing); messages from parties
// corrupted during the adversary's move are dropped and the surviving
// round-r messages are routed to their recipients (Phase 3, strongly
// rushing); then every honest party receives all round-r messages
// addressed to it and computes its round r+1 messages (Phase 4).
func Run(cfg Config, machines []Machine, adv Adversary) (*Result, error) {
	if cfg.N <= 0 || cfg.T < 0 || cfg.T >= cfg.N || cfg.Rounds < 0 {
		return nil, fmt.Errorf("%w: n=%d t=%d rounds=%d", ErrBadConfig, cfg.N, cfg.T, cfg.Rounds)
	}
	if len(machines) != cfg.N {
		return nil, fmt.Errorf("%w: %d machines for n=%d", ErrBadConfig, len(machines), cfg.N)
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = NopTracer{}
	}
	if adv == nil {
		adv = Passive{}
	}
	e := &engine{
		cfg:      cfg,
		machines: machines,
		adv:      adv,
		env:      newEnv(cfg.N, cfg.T, rand.New(rand.NewSource(cfg.Seed)), tracer),
		tracer:   tracer,
		pending:  make([][]Send, cfg.N),
		offsets:  make([]int, cfg.N+1),
		subtotal: make([]RoundMetrics, cfg.N),
		inbox:    make([][]Message, cfg.N),
		honestTo: make([]int, cfg.N),
		advStart: make([]int, cfg.N+1),
		bySender: make([]int, cfg.N+1),
	}
	return e.run()
}

// run is the round loop: four phase executors plus output extraction.
func (e *engine) run() (*Result, error) {
	cfg := e.cfg
	e.adv.Init(e.env)

	for p := 0; p < cfg.N; p++ {
		if e.env.IsCorrupted(p) {
			continue
		}
		e.pending[p] = e.machines[p].Start()
	}

	metrics := Metrics{PerRound: make([]RoundMetrics, 0, cfg.Rounds)}
	for round := 1; round <= cfg.Rounds; round++ {
		e.env.round = round
		e.tracer.RoundStart(round)

		honest := e.collectSends(round)
		e.tracer.HonestSent(round, honest)

		advMsgs, err := e.adversaryAct(round, honest)
		if err != nil {
			return nil, err
		}

		rm := e.meterRound(advMsgs)
		e.routeInboxes(round, advMsgs)
		e.stepMachines(round)

		metrics.PerRound = append(metrics.PerRound, rm)
		metrics.Rounds = round
	}

	metrics.Corruptions = e.env.CorruptedCount()
	res := &Result{
		Outputs:   make(map[PartyID]any, cfg.N),
		Corrupted: e.env.CorruptedSet(),
		Metrics:   metrics,
	}
	for p := 0; p < cfg.N; p++ {
		if e.env.IsCorrupted(p) {
			continue
		}
		out, ok := e.machines[p].Output()
		if !ok {
			return nil, fmt.Errorf("%w: party %d after %d rounds", ErrNoOutput, p, cfg.Rounds)
		}
		res.Outputs[p] = out
	}
	return res, nil
}

// collectSends is Phase 1: expand every honest party's pending sends
// into the pooled shared buffer, in ascending (party, send index,
// recipient) order, and meter each party's sends into its subtotal.
// Broadcasts fan out to n addressed copies sharing one payload.
func (e *engine) collectSends(round int) []Message {
	n := e.cfg.N
	e.offsets[0] = 0
	for p := 0; p < n; p++ {
		count := 0
		if !e.env.IsCorrupted(p) {
			count = expandedCount(n, e.pending[p])
		}
		e.offsets[p+1] = e.offsets[p] + count
	}
	total := e.offsets[n]
	if cap(e.honest) < total {
		e.honest = make([]Message, total)
	}
	honest := e.honest[:total]
	for p := 0; p < n; p++ {
		e.subtotal[p] = RoundMetrics{}
		if e.env.IsCorrupted(p) {
			continue
		}
		fillSends(honest[e.offsets[p]:e.offsets[p+1]], p, round, n, e.pending[p])
		for _, s := range e.pending[p] {
			e.subtotal[p].accumulate(s.Payload, copies(n, s.To))
		}
	}
	e.honest = honest[:0]
	return honest
}

// adversaryAct is Phase 2: the adversary observes the round's honest
// traffic and answers with the corrupted parties' messages. The view
// aliases the engine's pooled buffer; adversaries must treat it as
// read-only and not retain it past the call (see Adversary.Act).
func (e *engine) adversaryAct(round int, honest []Message) ([]Message, error) {
	advMsgs := e.adv.Act(round, honest, e.env)
	for i := range advMsgs {
		if !e.env.IsCorrupted(advMsgs[i].From) {
			return nil, fmt.Errorf("%w: party %d in round %d", ErrForgedSender, advMsgs[i].From, round)
		}
		advMsgs[i].Round = round
	}
	e.tracer.AdversarySent(round, advMsgs)
	return advMsgs, nil
}

// meterRound folds the per-sender subtotals of parties that survived
// Phase 2 honest into the round metrics: a party corrupted mid-round
// had its sends dropped, so they do not count (strongly rushing).
func (e *engine) meterRound(advMsgs []Message) RoundMetrics {
	var rm RoundMetrics
	for p := 0; p < e.cfg.N; p++ {
		if e.env.IsCorrupted(p) {
			continue
		}
		rm.HonestMessages += e.subtotal[p].HonestMessages
		rm.HonestSignatures += e.subtotal[p].HonestSignatures
		rm.HonestBytes += e.subtotal[p].HonestBytes
	}
	rm.AdversaryMessages = len(advMsgs)
	return rm
}

// routeInboxes is Phase 3: deliver the round's surviving messages into
// the pooled per-party inboxes, each built in ascending sender order.
// Two passes first bucket the adversary's messages per recipient and
// count each recipient's deliveries; then every inbox is filled by one
// merge of its bucket with the honest senders' pending lists,
// re-addressed lazily (a broadcast is one Send scanned n times, never n
// buffered copies). Messages from parties corrupted during Phase 2 are
// dropped here (strongly rushing).
func (e *engine) routeInboxes(round int, advMsgs []Message) {
	e.bucketAdversary(advMsgs)
	e.countHonest()
	for p := 0; p < e.cfg.N; p++ {
		e.routeParty(p, round)
	}
}

// bucketAdversary sorts the round's adversary messages into one bucket
// per honest recipient, each in stable sender order: a counting sort by
// sender (From is in range — adversaryAct checked it is corrupted), then
// one pass that copies each message, broadcasts fanned out, into its
// recipients' buckets. Buckets of corrupted recipients stay empty;
// out-of-range unicasts are dropped.
func (e *engine) bucketAdversary(advMsgs []Message) {
	n := e.cfg.N
	corrupted := e.env.corrupted

	bySender := e.bySender
	clear(bySender)
	for i := range advMsgs {
		bySender[advMsgs[i].From+1]++
	}
	for q := 0; q < n; q++ {
		bySender[q+1] += bySender[q]
	}
	order := slices.Grow(e.advOrder[:0], len(advMsgs))[:len(advMsgs)]
	for i := range advMsgs {
		q := advMsgs[i].From
		order[bySender[q]] = i
		bySender[q]++
	}
	e.advOrder = order

	// advStart[p+1] first counts p's unicasts, then becomes the prefix
	// sum of the bucket sizes.
	start := e.advStart
	clear(start)
	broadcasts := 0
	for i := range advMsgs {
		switch to := advMsgs[i].To; {
		case to == Broadcast:
			broadcasts++
		case to >= 0 && to < n:
			start[to+1]++
		}
	}
	for p := 0; p < n; p++ {
		size := start[p+1] + broadcasts
		if corrupted[p] {
			size = 0
		}
		start[p+1] = start[p] + size
	}

	flat := slices.Grow(e.advFlat[:0], start[n])[:start[n]]
	next := bySender[:n] // reused as the per-bucket write cursor
	copy(next, start[:n])
	for _, i := range order {
		m := advMsgs[i]
		if m.To != Broadcast {
			if m.To >= 0 && m.To < n && !corrupted[m.To] {
				flat[next[m.To]] = m
				next[m.To]++
			}
			continue
		}
		for p := 0; p < n; p++ {
			if !corrupted[p] {
				m.To = p
				flat[next[p]] = m
				next[p]++
			}
		}
	}
	e.advFlat = flat
}

// countHonest counts the round's surviving honest deliveries per
// recipient: honestBroadcasts reach every honest party, honestTo[p]
// counts the in-range unicasts addressed to p.
func (e *engine) countHonest() {
	corrupted := e.env.corrupted
	clear(e.honestTo)
	e.honestBroadcasts = 0
	for q, sends := range e.pending {
		if corrupted[q] {
			continue
		}
		for _, s := range sends {
			switch {
			case s.To == Broadcast:
				e.honestBroadcasts++
			case s.To >= 0 && s.To < len(e.honestTo):
				e.honestTo[s.To]++
			}
		}
	}
}

// stepMachines is Phase 4: every honest machine receives its inbox and
// produces next round's sends; a corrupted party's pending slot is
// cleared.
func (e *engine) stepMachines(round int) {
	for p := 0; p < e.cfg.N; p++ {
		if e.env.IsCorrupted(p) {
			e.pending[p] = nil
			continue
		}
		e.pending[p] = e.machines[p].Deliver(round, e.inbox[p])
	}
}

// routeParty fills recipient p's pooled inbox, sized exactly, by
// scanning senders in ascending ID order: an honest sender contributes
// its pending sends addressed to p, a corrupted one its run of p's
// adversary bucket. Honest and corrupted senders are disjoint, so the
// inbox is sorted by sender, and each sender's messages keep their send
// (or injection) order.
func (e *engine) routeParty(p, round int) {
	buf := e.inbox[p][:0]
	corrupted := e.env.corrupted
	if corrupted[p] {
		e.inbox[p] = buf
		return
	}
	bucket := e.advFlat[e.advStart[p]:e.advStart[p+1]]
	buf = slices.Grow(buf, e.honestBroadcasts+e.honestTo[p]+len(bucket))
	j := 0
	for q, sends := range e.pending {
		if corrupted[q] {
			for j < len(bucket) && bucket[j].From == q {
				buf = append(buf, bucket[j])
				j++
			}
			continue
		}
		for _, s := range sends {
			if s.To == Broadcast || s.To == p {
				buf = append(buf, Message{From: q, To: p, Round: round, Payload: s.Payload})
			}
		}
	}
	e.inbox[p] = buf
}

// expandedCount returns how many addressed messages a send list expands
// to (what fillSends writes).
func expandedCount(n int, sends []Send) int {
	count := 0
	for _, s := range sends {
		count += copies(n, s.To)
	}
	return count
}

// copies returns how many addressed messages a send to `to` expands to:
// n for a broadcast, one for an in-range unicast, none for an
// out-of-range recipient.
func copies(n int, to PartyID) int {
	switch {
	case to == Broadcast:
		return n
	case to >= 0 && to < n:
		return 1
	}
	return 0
}

// fillSends writes the expansion of a send list into dst, which must
// have length expandedCount(n, sends).
func fillSends(dst []Message, from PartyID, round, n int, sends []Send) {
	i := 0
	for _, s := range sends {
		if s.To == Broadcast {
			for p := 0; p < n; p++ {
				dst[i] = Message{From: from, To: p, Round: round, Payload: s.Payload}
				i++
			}
			continue
		}
		if s.To < 0 || s.To >= n {
			continue
		}
		dst[i] = Message{From: from, To: s.To, Round: round, Payload: s.Payload}
		i++
	}
}
