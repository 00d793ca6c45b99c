// Package service turns the one-shot protocol stack into a long-lived
// consensus service: clients stream proposed values in, the service
// batches them into multivalued BA instances running concurrently over
// one shared set of transport connections, and decisions stream
// back out. The lifecycle per instance is create (allocate an ID,
// register transport lanes), run (drive the hub rounds and the n party
// machines), decide (check agreement, resolve the batch's proposals) and
// garbage-collect (unregister the lanes). Admission control is a
// bounded pending queue: a full queue sheds new proposals with a
// retry-after hint instead of letting overload stall every instance —
// the backpressure policy DESIGN.md §12 documents.
package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"proxcensus/internal/ba"
	"proxcensus/internal/quorum"
	"proxcensus/internal/sim"
	"proxcensus/internal/transport"
	"proxcensus/internal/validate"
)

// Service errors.
var (
	// ErrOverloaded marks a proposal shed by admission control: the
	// pending queue is full. Retry after the hint in the error text.
	ErrOverloaded = errors.New("service: overloaded")
	// ErrClosed marks a proposal submitted after Close.
	ErrClosed = errors.New("service: closed")
)

// Config tunes a consensus service. Zero fields fall back to defaults;
// N and T have no defaults because they define the deployment.
type Config struct {
	// N and T are the party count and fault tolerance of every BA
	// instance. Multivalued one-shot instances require 3t < n.
	N, T int
	// Kappa is the per-instance security parameter (round count knob).
	Kappa int
	// Seed seeds the shared protocol setup (keys, coins).
	Seed int64
	// MaxPending bounds the admission queue: proposals accepted but not
	// yet assigned to a running instance. A full queue sheds load.
	MaxPending int
	// MaxActive bounds how many BA instances run concurrently; it is
	// also the number of worker goroutines draining the queue. A worker
	// that has run an instance also parks one goroutine per party, fed
	// one instance at a time, so a service runs at most
	// MaxActive × (N+1) goroutines for its instances.
	MaxActive int
	// Batch is the most proposals one BA instance decides together.
	Batch int
	// MaxPayload bounds one client payload proposal in bytes. The
	// ingress screen enforces Batch*(MaxPayload+8) — the largest batch
	// encoding an honest instance can put on the wire — so oversize
	// floods die at admission.
	MaxPayload int
	// RetryAfter is the backoff hint attached to shed proposals.
	RetryAfter time.Duration
	// RoundTimeout is each instance's round deadline: the hub declares
	// a node dead for an instance whose round batch misses it. Zero
	// selects the transport's default.
	RoundTimeout time.Duration
	// Faults injects a fault schedule (internal/chaos) into every
	// instance, each on its own round clock; nil injects none.
	Faults transport.FaultInjector
}

// Defaults for the zero Config fields.
const (
	DefaultKappa      = 4
	DefaultMaxPending = 256
	DefaultMaxActive  = 64
	DefaultBatch      = 8
	DefaultMaxPayload = 16 << 10
	DefaultRetryAfter = 50 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.Kappa == 0 {
		c.Kappa = DefaultKappa
	}
	if c.MaxPending == 0 {
		c.MaxPending = DefaultMaxPending
	}
	if c.MaxActive == 0 {
		c.MaxActive = DefaultMaxActive
	}
	if c.Batch == 0 {
		c.Batch = DefaultBatch
	}
	if c.MaxPayload == 0 {
		c.MaxPayload = DefaultMaxPayload
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	return c
}

// Validate rejects configurations no instance could run under, with
// pointed per-field errors.
func (c Config) Validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("service: need at least 2 parties, got n=%d", c.N)
	case c.T < 0:
		return fmt.Errorf("service: negative fault tolerance t=%d", c.T)
	case !quorum.TolerateThird(c.N, c.T):
		return fmt.Errorf("service: multivalued instances need 3t < n, got n=%d t=%d (raise n or lower t)", c.N, c.T)
	case c.Kappa < 1:
		return fmt.Errorf("service: kappa must be at least 1, got %d", c.Kappa)
	case c.MaxPending < 1:
		return fmt.Errorf("service: max-pending must be positive, got %d", c.MaxPending)
	case c.MaxActive < 1:
		return fmt.Errorf("service: max-active must be positive, got %d", c.MaxActive)
	case c.Batch < 1:
		return fmt.Errorf("service: batch must be positive, got %d", c.Batch)
	case c.MaxPayload < 1:
		return fmt.Errorf("service: max-payload must be positive, got %d", c.MaxPayload)
	case c.MaxPayload > MaxAPIPayload:
		return fmt.Errorf("service: max-payload %d exceeds the line-protocol ceiling %d", c.MaxPayload, MaxAPIPayload)
	case c.Batch > ba.MaxPayloadBytes/(c.MaxPayload+8): // Batch*(MaxPayload+8) > cap, without the overflow
		return fmt.Errorf("service: batch %d x max-payload %d encodes past the %d-byte wire cap (lower batch or max-payload)",
			c.Batch, c.MaxPayload, ba.MaxPayloadBytes)
	case c.RetryAfter < 0:
		return fmt.Errorf("service: negative retry-after %s", c.RetryAfter)
	}
	return nil
}

// Decision is the outcome of one proposal.
type Decision struct {
	// Instance is the BA instance that carried the proposal.
	Instance int
	// Value is the proposed value the decision answers.
	Value ba.Value
	// Payload, for payload proposals on a committed instance, is this
	// proposal's segment parsed back out of the DECIDED batch bytes —
	// the round-trip proof that what the instance agreed on contains the
	// client's bytes. A Ticket's Decision owns its copy. Nil for digest
	// proposals and failed instances.
	Payload []byte
	// Digest is the batch digest a digest proposal's instance agreed
	// on. It is 0 for payload proposals, whose instances agree on the
	// batch bytes themselves.
	Digest ba.Value
	// Committed reports whether the instance decided the proposal's
	// batch (true on every honest path; false only if the instance
	// failed or agreed on the fallback).
	Committed bool
	// Latency is submit-to-decision time.
	Latency time.Duration
	// Err carries the instance failure when Committed is false.
	Err error
}

// Ticket tracks one accepted proposal to its decision.
type Ticket struct {
	done chan Decision
}

// Done returns the channel the decision arrives on (exactly one).
func (t *Ticket) Done() <-chan Decision { return t.done }

// Wait blocks for the decision.
func (t *Ticket) Wait() Decision { return <-t.done }

// Stats is a snapshot of service counters.
type Stats struct {
	// Submitted counts accepted proposals; Shed counts rejections by
	// admission control; Decided and Failed partition the resolved ones.
	Submitted, Shed, Decided, Failed int64
	// Instances counts BA instances started; PeakActive is the highest
	// concurrency reached.
	Instances  int64
	PeakActive int
	// Pending and Active are current queue depth and running instances.
	Pending, Active int
}

// proposal is one queued value or payload and where its decision goes:
// the ticket of a Submit or SubmitPayload caller, or the API connection
// and request ID it came in on. isPayload selects the instance family:
// digest proposals agree on an FNV fold of the batch, payload proposals
// agree on the batch bytes themselves.
type proposal struct {
	value     ba.Value
	payload   []byte
	isPayload bool
	enqueued  time.Time
	tk        *Ticket
	conn      *apiConn
	reqid     string
}

// resolve delivers the proposal's decision without blocking: onto its
// ticket's one-slot channel, or rendered into its connection's answer
// queue. A decided payload aliases the worker's batch input, valid only
// until the instance returns, so the ticket gets a copy of its own and
// the answer is rendered now, in scratch; resolve returns scratch for
// the next answer.
func (p *proposal) resolve(d Decision, scratch []byte) []byte {
	if p.conn != nil {
		return p.conn.answer(scratch, p.reqid, p.isPayload, d)
	}
	d.Payload = bytes.Clone(d.Payload)
	p.tk.done <- d
	return scratch
}

// Service is a running consensus service: a mux hub, n in-process
// party nodes, and a worker pool batching proposals into instances.
type Service struct {
	cfg   Config
	setup *ba.Setup
	hub   *transport.MuxHub
	nodes []*transport.MuxNode

	pending chan proposal
	workers sync.WaitGroup

	mu           sync.Mutex
	closed       bool
	nextInstance int
	active       int
	peakActive   int
	submitted    int64
	shed         int64
	decided      int64
	failed       int64
	instances    int64
}

// New builds and starts a service: transport wired, nodes connected,
// workers draining the queue. Close releases everything.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	setup, err := ba.NewSetup(cfg.N, cfg.T, ba.CoinIdeal, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Ingress screening, one validator per instance slot of a node: the
	// permissive General rules (sender range, decode, duplicate and
	// equivocation checks that hold for any protocol, value domain left
	// open for batch digests) plus the payload size cap at the largest
	// honest batch encoding — oversize payload floods die at admission.
	n, payloadCap := cfg.N, cfg.Batch*(cfg.MaxPayload+8)
	tcfg := transport.Config{
		RoundTimeout: cfg.RoundTimeout,
		Faults:       cfg.Faults,
		NewIngress: func(int) *validate.Validator {
			return validate.New(validate.ForPayloadService(n, payloadCap))
		},
	}
	hub, err := transport.NewMuxHub(cfg.N, tcfg)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		setup:   setup,
		hub:     hub,
		nodes:   make([]*transport.MuxNode, cfg.N),
		pending: make(chan proposal, cfg.MaxPending),
	}
	for i := 0; i < cfg.N; i++ {
		nd, err := transport.NewMuxNode(hub.Addr(), i, tcfg)
		if err != nil {
			s.teardown()
			return nil, fmt.Errorf("service: node %d: %w", i, err)
		}
		s.nodes[i] = nd
	}
	if err := hub.AwaitNodes(transport.DefaultConfig().JoinTimeout); err != nil {
		s.teardown()
		return nil, err
	}
	s.workers.Add(cfg.MaxActive)
	for i := 0; i < cfg.MaxActive; i++ {
		go s.worker()
	}
	return s, nil
}

// teardown releases transport resources.
func (s *Service) teardown() {
	for _, nd := range s.nodes {
		if nd != nil {
			_ = nd.Close()
		}
	}
	_ = s.hub.Close()
}

// Close drains the service: no new proposals are admitted, queued ones
// still run to decision, then the transport shuts down.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.pending)
	s.workers.Wait()
	s.teardown()
	return nil
}

// Submit offers one proposal. It never blocks: either the proposal is
// admitted and a Ticket tracks it to decision, or admission control
// sheds it with ErrOverloaded and the configured retry-after hint.
// Values must be non-negative (the wire value domain).
func (s *Service) Submit(value ba.Value) (*Ticket, error) {
	return s.submit(proposal{value: value})
}

// SubmitPayload offers one ℓ-bit payload proposal: the client's bytes,
// not a digest of them, are what the instance agrees on and what comes
// back in the Decision. Admission mirrors Submit (never blocks, sheds
// with ErrOverloaded when full). The payload is copied, so the caller
// may reuse its buffer immediately, and the Decision's Payload is the
// caller's own copy of the decided segment.
func (s *Service) SubmitPayload(data []byte) (*Ticket, error) {
	return s.submit(proposal{payload: data, isPayload: true})
}

// submit admits a proposal whose decision a new Ticket tracks; a
// payload is the caller's, so admission copies it.
func (s *Service) submit(p proposal) (*Ticket, error) {
	p.tk = &Ticket{done: make(chan Decision, 1)}
	if err := s.admit(p, false); err != nil {
		return nil, err
	}
	return p.tk, nil
}

// admit is admission control, the one path every proposal takes, from
// Submit, SubmitPayload and the line API alike: a negative value or an
// empty or oversize payload is refused; a payload the service does not
// own is copied once it passes; then the proposal takes a place in the
// pending queue, or the queue is full and it is shed.
func (s *Service) admit(p proposal, owned bool) error {
	switch {
	case p.isPayload && len(p.payload) == 0:
		return errors.New("service: empty payload")
	case len(p.payload) > s.cfg.MaxPayload:
		return fmt.Errorf("service: payload %d bytes exceeds max-payload %d", len(p.payload), s.cfg.MaxPayload)
	case p.value < 0:
		return fmt.Errorf("service: negative value %d", p.value)
	}
	if !owned {
		p.payload = bytes.Clone(p.payload)
	}
	p.enqueued = time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.pending <- p:
		s.submitted++
		return nil
	default:
		s.shed++
		return fmt.Errorf("%w: %d proposals pending, retry after %s", ErrOverloaded, len(s.pending), s.cfg.RetryAfter)
	}
}

// RetryAfter returns the configured shed-backoff hint.
func (s *Service) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Submitted:  s.submitted,
		Shed:       s.shed,
		Decided:    s.decided,
		Failed:     s.failed,
		Instances:  s.instances,
		PeakActive: s.peakActive,
		Pending:    len(s.pending),
		Active:     s.active,
	}
}

// Report merges the transport-level reports of the hub and every node
// into one service view. Per-instance hub reports are not retained;
// what outlives an instance is in the hub's report: which nodes some
// instance ended without, and the link-level events.
func (s *Service) Report() transport.Report {
	reps := make([]transport.Report, 0, len(s.nodes)+1)
	reps = append(reps, s.hub.Report())
	for _, nd := range s.nodes {
		reps = append(reps, nd.Report())
	}
	return transport.MergeReports(reps...)
}

// worker drains the pending queue: each iteration claims one proposal,
// greedily folds up to Batch-1 more into the same instance, and runs
// the instance to decision. MaxActive workers bound the concurrency.
func (s *Service) worker() {
	defer s.workers.Done()
	w := s.newWorkerState()
	defer w.stop()
	for {
		var first proposal
		if w.carried {
			first, w.carry, w.carried = w.carry, proposal{}, false
		} else {
			p, ok := <-s.pending
			if !ok {
				return
			}
			first = p
		}
		batch := s.collect(w, first)
		s.runInstance(w, batch)
		clear(batch)
	}
}

// workerState is what a worker keeps from one instance to the next: the
// machine set of each instance family, built the first time the worker
// runs that family and reset for every later instance instead of
// rebuilt, its party goroutines, and the slices an instance fills. A
// worker runs one instance at a time, so nothing else touches its state
// but its own parties, each writing its one slot of outs and errs
// before it reports done on running. A service holds at most
// MaxActive × 2 sets. Between instances the slices are cleared, the
// byte buffers zeroed and the sets released (ba.Protocol.Reset with nil
// inputs), so an idle worker pins no proposal, payload or decision.
type workerState struct {
	digest  machineSet[ba.Value]
	payload machineSet[[]byte]
	batch   []proposal
	outs    []any
	errs    []error
	// carry is the proposal of the other family that ended the last
	// batch (collect), which seeds the next one when carried is set.
	carry   proposal
	carried bool
	// input is the one batch input of every payload instance the worker
	// runs (encodeBatchPayload); the decided bytes, and segs, the
	// per-proposal segments split out of them, alias it until the
	// instance returns. line is the scratch an API answer is rendered in
	// before it is queued on its connection.
	input []byte
	segs  [][]byte
	line  []byte
	// parties feeds party i's goroutine one job per instance; nil until
	// the worker's first instance, closed by stop.
	parties []chan partyJob
	running sync.WaitGroup
}

// newWorkerState returns an idle worker's state, with room for a full
// batch and one output per party.
func (s *Service) newWorkerState() *workerState {
	return &workerState{
		batch: make([]proposal, 0, s.cfg.Batch),
		outs:  make([]any, s.cfg.N),
		errs:  make([]error, s.cfg.N),
	}
}

// stop closes the job channels of the worker's party goroutines, which
// then exit; the worker calls it when it exits.
func (w *workerState) stop() {
	for _, jobs := range w.parties {
		close(jobs)
	}
}

// partyJob is one party's share of an instance: its machine, stepped
// through the instance's rounds on the party's node.
type partyJob struct {
	inst, rounds int
	machine      sim.Machine
}

// machineSet is one family's protocol and the inputs slice it is reset
// with; proto is nil until the family's first instance.
type machineSet[T any] struct {
	proto  *ba.Protocol
	inputs []T
}

// collect folds queued proposals into one instance batch without
// blocking: amortization (many proposals, one instance) under load,
// latency (instance per proposal) when idle. Batches are homogeneous —
// a proposal of the other kind (digest vs payload) ends the batch and
// is carried over in w.carry to seed the worker's next instance, so the
// two families never share an instance. The batch is w.batch, which has
// room for Batch proposals.
func (s *Service) collect(w *workerState, first proposal) []proposal {
	batch := append(w.batch[:0], first)
	for len(batch) < s.cfg.Batch {
		select {
		case p, ok := <-s.pending:
			if !ok {
				return batch
			}
			if p.isPayload != first.isPayload {
				w.carry, w.carried = p, true
				return batch
			}
			batch = append(batch, p)
		default:
			return batch
		}
	}
	return batch
}

// batchDigest folds a batch's values into one non-negative instance
// input: the parties agree on the digest, which commits the batch.
func batchDigest(batch []proposal) ba.Value {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range batch {
		v := uint64(p.value)
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * (7 - i)))
		}
		_, _ = h.Write(b[:])
	}
	return ba.Value(h.Sum64() >> 1) // mask the sign bit: wire values are non-negative
}

// encodeBatchPayload appends a payload batch to dst as the instance
// input: per proposal an 8-byte big-endian length then the bytes. The
// framing is what lets a committed decision be split back into the
// per-proposal segments clients get their answers from.
func encodeBatchPayload(dst []byte, batch []proposal) []byte {
	for _, p := range batch {
		dst = binary.BigEndian.AppendUint64(dst, uint64(len(p.payload)))
		dst = append(dst, p.payload...)
	}
	return dst
}

// splitBatchPayload parses decided batch bytes back into per-proposal
// segments, appended to dst, each aliasing b. It returns dst[:0] if the
// bytes don't frame cleanly (a non-committed decision need not).
func splitBatchPayload(dst [][]byte, b []byte) [][]byte {
	segs := dst
	for len(b) >= 8 {
		n := binary.BigEndian.Uint64(b[:8])
		b = b[8:]
		if n > uint64(len(b)) {
			return dst[:0]
		}
		segs = append(segs, b[:n:n])
		b = b[n:]
	}
	if len(b) != 0 {
		return dst[:0]
	}
	return segs
}

// runInstance runs one BA instance for a batch on the worker's machine
// sets and resolves its proposals. A payload batch is encoded into the
// worker's one batch input, and each API proposal's payload buffer goes
// back to its connection as soon as the input holds the copy; every
// decision is delivered before runInstance returns and zeroes the input.
func (s *Service) runInstance(w *workerState, batch []proposal) {
	s.mu.Lock()
	s.nextInstance++
	inst := s.nextInstance
	s.instances++
	s.active++
	if s.active > s.peakActive {
		s.peakActive = s.active
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}()

	var (
		committed bool
		err       error
		digest    ba.Value
		segs      [][]byte
	)
	if batch[0].isPayload {
		w.input = encodeBatchPayload(w.input[:0], batch)
		input := w.input
		for i := range batch {
			p := &batch[i]
			if p.conn != nil {
				p.conn.recycle(p.payload)
			}
			p.payload = nil
		}
		var decided []byte
		decided, err = decide(s, w, &w.payload, inst, input,
			ba.NewMultivaluedPayloadOneShot, ba.PayloadDecisionsFromOutputs, ba.CheckPayloadAgreement)
		committed = err == nil && bytes.Equal(decided, input)
		if err == nil && !committed {
			err = fmt.Errorf("service: instance %d decided %d bytes, not its %d-byte batch input",
				inst, len(decided), len(input))
		}
		if committed {
			segs = splitBatchPayload(w.segs[:0], decided)
			w.segs = segs
		}
	} else {
		digest = batchDigest(batch)
		var decidedV ba.Value
		decidedV, err = decide(s, w, &w.digest, inst, digest,
			ba.NewMultivaluedOneShot, ba.DecisionsFromOutputs, ba.CheckAgreement)
		committed = err == nil && decidedV == digest
		if err == nil && !committed {
			err = fmt.Errorf("service: instance %d decided %d, batch digest %d", inst, decidedV, digest)
		}
	}

	s.mu.Lock()
	if committed {
		s.decided += int64(len(batch))
	} else {
		s.failed += int64(len(batch))
	}
	s.mu.Unlock()
	for i := range batch {
		p := &batch[i]
		d := Decision{
			Instance:  inst,
			Value:     p.value,
			Digest:    digest,
			Committed: committed,
			Latency:   time.Since(p.enqueued),
			Err:       err,
		}
		if p.isPayload && committed && i < len(segs) {
			d.Payload = segs[i]
		}
		w.line = p.resolve(d, w.line)
	}
	clear(w.input)
	clear(w.segs)
	clear(w.line[:cap(w.line)])
	w.input, w.segs, w.line = w.input[:0], w.segs[:0], w.line[:0]
}

// decide runs one multivalued BA instance with every party proposing
// input and returns what the parties agreed on. The family is the
// caller's choice of constructor, output extractor and agreement check:
// for a digest batch the parties agree on a ba.Value; for a payload
// batch the machine lattice is the payload Turpin-Coan family, so what
// travels the wire and what the parties decide are the batch bytes
// themselves, not a digest stand-in. Both constructors take the
// fallback decision last, and both families use its zero value.
//
// The machines are set's: built by the constructor on the family's
// first instance, reset with the new inputs on every later one, and
// released when the instance ends, however it ends. The decision is
// read before the release, and a decided byte string is the
// candidate's own bytes — under pre-agreement the caller's input, the
// worker's one batch input, which runInstance zeroes and the next
// payload instance overwrites. So decided bytes are valid only until
// runInstance returns.
func decide[T any](s *Service, w *workerState, set *machineSet[T], inst int, input T,
	build func(*ba.Setup, int, []T, T) (*ba.Protocol, error),
	extract func([]any) []T, agree func([]T) error) (T, error) {
	var fallback T
	if set.inputs == nil {
		set.inputs = make([]T, s.cfg.N)
	}
	for i := range set.inputs {
		set.inputs[i] = input
	}
	defer func() {
		clear(set.inputs)
		clear(w.outs)
		clear(w.errs)
		if set.proto != nil {
			_ = set.proto.Reset(nil) // cannot fail: nil inputs fit every family
		}
	}()
	if set.proto == nil {
		proto, err := build(s.setup, s.cfg.Kappa, set.inputs, fallback)
		if err != nil {
			return fallback, err
		}
		set.proto = proto
	} else if err := set.proto.Reset(set.inputs); err != nil {
		return fallback, err
	}
	outs, err := s.drive(w, inst, set.proto.Rounds, set.proto.Machines)
	if err != nil {
		return fallback, err
	}
	decisions := extract(outs)
	if len(decisions) != len(outs) {
		return fallback, fmt.Errorf("service: instance %d produced %d decisions from %d outputs", inst, len(decisions), len(outs))
	}
	if err := agree(decisions); err != nil {
		return fallback, fmt.Errorf("service: instance %d: %w", inst, err)
	}
	return decisions[0], nil
}

// drive runs one instance end to end — the hub's round loop on the
// worker's goroutine, the n parties' machines on the worker's party
// goroutines, over the shared connections — and returns the outputs of
// the parties that finished. A party may fail (crashed or cut off by an
// injected fault, declared dead by the hub); the instance stands as
// long as an n-t quorum returned, which is all BA promises to wait for.
// The caller checks that the returned outputs agree. drive returns only
// once the hub and every party are done with the instance. The outputs
// are collected in the worker's outs and errs, so the returned slice
// aliases w.outs.
func (s *Service) drive(w *workerState, inst, rounds int, machines []sim.Machine) ([]any, error) {
	hi, err := s.hub.StartInstance(inst, rounds)
	if err != nil {
		return nil, err
	}
	if w.parties == nil {
		s.startParties(w)
	}
	w.running.Add(len(machines))
	for i, m := range machines {
		w.parties[i] <- partyJob{inst: inst, rounds: rounds, machine: m}
	}
	hubErr := hi.Run()
	w.running.Wait()
	if hubErr != nil {
		return nil, hubErr
	}
	done := w.outs[:0]
	var failed error
	for i, e := range w.errs {
		if e == nil {
			done = append(done, w.outs[i])
		} else if failed == nil {
			failed = fmt.Errorf("party %d: %w", i, e)
		}
	}
	if !quorum.Reached(len(done), s.cfg.N, s.cfg.T) {
		return nil, fmt.Errorf("service: instance %d: %d of %d parties finished: %w", inst, len(done), s.cfg.N, failed)
	}
	return done, nil
}

// startParties starts the worker's n party goroutines. Party i runs
// each job on node i, leaves its result in the worker's slot i and
// reports done; it exits when the worker closes its job channel, and
// Close waits for it as for the worker.
func (s *Service) startParties(w *workerState) {
	w.parties = make([]chan partyJob, s.cfg.N)
	s.workers.Add(s.cfg.N)
	for i := range w.parties {
		jobs := make(chan partyJob, 1)
		w.parties[i] = jobs
		go func() {
			defer s.workers.Done()
			for j := range jobs {
				w.outs[i], w.errs[i] = s.nodes[i].RunInstance(j.inst, j.rounds, j.machine)
				w.running.Done()
			}
		}()
	}
}
