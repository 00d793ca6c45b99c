// The hub and the node: one TCP connection per node carries many
// concurrent protocol instances, each an independent synchronous
// execution with its own rounds, deadlines and report. A per-connection
// reader goroutine demultiplexes instance-tagged frames (wire.VersionMux
// framing) into per-instance delivery lanes; the round barrier, gather
// deadlines, flood caps and fault-injection hooks work per instance.
// Lanes outlive any one connection: a node that loses its connection
// redials with a resume hello and every instance carries on where its
// lane left off. internal/service layers admission control and instance
// lifecycle on top; RunLocal runs a single instance.
//
// Frames share syscalls both ways. A sender encodes its body behind a
// reserved length prefix into a buffer it owns and queues the sealed
// frame on the connection's outbox, and the frames concurrent instances
// queue meanwhile go out with it in one write (outbox). Every connection
// reader reads through a buffer of its own (connBufSize), so one read
// syscall takes in every frame the peer has queued, and arms its
// deadline only when the next frame is not already buffered whole.
// Received bytes are copied once per hop into a frame: a small frame out
// of the connection buffer, a body larger than the buffer straight off
// the socket. The frame — read buffer plus parsed batch — travels with
// its batch from the connection reader down the lane to the round loop,
// everything downstream aliases it (batch entries, routed inboxes,
// decoded payload blobs), and whoever ends its journey releases it to
// the endpoint's free list: a drop site on the spot, the hub once the
// round's delivery frames are encoded, the node once Machine.Deliver has
// returned. Each round loop waits against one timer, re-armed round over
// round. What an instance's rounds need beyond its lanes — receive
// scratch, decoder, screen, timer and send frame on a node; round
// scratch and timer on the hub — sits in instance slots that serve one
// instance after another (instanceRun, roundScratch).

package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"proxcensus/internal/sim"
	"proxcensus/internal/validate"
	"proxcensus/internal/wire"
)

// Mux errors.
var (
	// ErrMuxClosed marks operations on a closed mux endpoint.
	ErrMuxClosed = errors.New("transport: mux closed")
	// ErrDupInstance marks a second registration of a live instance ID.
	ErrDupInstance = errors.New("transport: duplicate instance")
)

// DefaultIdleTimeout bounds one read on a shared connection.
// Connections are legitimately silent between instances, so this is a
// liveness backstop, not a round deadline: per-instance round waits are
// bounded separately by RoundTimeout.
const DefaultIdleTimeout = 5 * time.Minute

// muxMailDepth sizes a per-(instance, node) delivery lane. Lock-step
// rounds leave at most one frame in flight per lane; the headroom only
// absorbs scheduling skew between the reader and the round loop.
const muxMailDepth = 4

// frameListLen is how many released frames an endpoint's free list
// keeps, and frameKeepMax the largest read buffer it keeps: a frame
// that had to grow past it is left to the collector on release.
// Together they bound what a hostile peer's oversized frames can pin in
// a long-lived daemon to frameListLen × frameKeepMax per endpoint.
const (
	frameListLen = 128
	frameKeepMax = 4 << 20
)

// frame is one received instance-tagged frame and the unit of receive
// ownership: msgs is the parsed batch and every Payload in it
// sub-slices buf. Exactly one goroutine holds a frame at a time —
// reader, then lane, then round loop — and the last holder releases it
// exactly once; nothing may read msgs or anything decoded from them
// with wire's aliasing arms after that.
type frame struct {
	buf  []byte
	msgs []wire.BatchMsg
	// released guards the one dangerous direction: a frame released
	// twice would sit on the free list twice and be read into by two
	// readers at once. Dropping a frame without releasing it is safe —
	// it is merely collected.
	released bool
}

// frameList is an endpoint's free list of frames: a leaky buffer that
// never blocks. It belongs to one MuxHub or MuxNode, not the process,
// so every endpoint starts cold and what one run allocates does not
// depend on what an earlier run in the same process left warm.
type frameList chan *frame

// framePoison is the lifetime tests' switch; see SetFramePoison.
var framePoison atomic.Bool

// SetFramePoison makes every frame release overwrite the frame's whole
// read buffer, so anything still aliasing a released frame reads 0xDB
// garbage instead of plausible stale bytes and a lifetime bug fails a
// test instead of hiding. It exists for tests (the TestMain of this
// package, internal/service and internal/chaos turns it on); nothing in
// the program sets it.
func SetFramePoison(on bool) { framePoison.Store(on) }

// get takes a frame off the list, or makes one when the list is empty.
func (l frameList) get() *frame {
	select {
	case f := <-l:
		f.released = false
		return f
	default:
		return new(frame)
	}
}

// put releases a frame. It goes back on the list unless the list is
// full or the frame's buffer outgrew frameKeepMax.
func (l frameList) put(f *frame) {
	if f.released {
		panic("transport: frame released twice")
	}
	f.released = true
	if framePoison.Load() {
		buf := f.buf[:cap(f.buf)]
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	if cap(f.buf) > frameKeepMax {
		return
	}
	select {
	case l <- f:
	default:
	}
}

// read receives one length-prefixed frame body into buf through r,
// conn's buffered reader, which outlives the frame: bytes it holds past
// this frame belong to the next one.
func (f *frame) read(conn net.Conn, r *bufio.Reader, deadline time.Time) (err error) {
	f.buf, err = readFrameInto(conn, r, deadline, f.buf[:0])
	return err
}

// parse decodes buf into msgs with the aliasing batch decoder,
// materializing at most maxMsgs entries (negative: no cap).
func (f *frame) parse(maxMsgs int) (inst, round, dropped int, err error) {
	inst, round, msgs, dropped, err := wire.DecodeTaggedBatchAliasCapped(f.buf, maxMsgs, f.msgs[:0])
	if err == nil {
		f.msgs = msgs
	}
	return inst, round, dropped, err
}

// muxBatch is one received frame's hop between a reader goroutine and
// an instance round loop. The frame changes hands with it: whoever
// takes a muxBatch off a lane releases its frame.
type muxBatch struct {
	round int
	frame *frame
}

// muxConn is one node's shared connection on the hub side. The reader
// goroutine owns reads; writes from concurrent instance round loops go
// through its outbox; down closes exactly once when the connection dies.
type muxConn struct {
	outbox
	down chan struct{}
}

// outFrame is one sealed frame queued on an outbox and the answer its
// sender waits for. The sender owns the struct and the frame's bytes and
// touches neither from queueing the frame until its answer comes, so the
// outbox holds references and copies nothing.
type outFrame struct {
	frame    []byte
	deadline time.Time
	// reply receives the frame back when its flush is answered — conn
	// and err set — or when the writer role is handed to its sender —
	// lead set. It holds one signal for every frame its sender can have
	// queued at once, so a writer never blocks on it.
	reply chan *outFrame
	box   *outbox
	lead  bool
	conn  net.Conn
	err   error
}

// outbox coalesces the frames concurrent senders queue on one shared
// connection into one write. The first sender that finds no writer
// becomes it, yields once — so senders that are already runnable queue
// behind it — and writes everything queued in one call (drain, flush).
// Each writer flushes once: it then hands the role to the oldest frame
// queued during its flush, or gives the role up when nothing was queued.
// That bounds what a sender writes for others to one flush — its own
// frame goes out in it — and strands no frame: whoever queued a frame is
// blocked on its reply, which carries the role as well as the answer.
// Frames queued on one outbox go out in the order they were queued, so
// one sender's frames keep their order.
type outbox struct {
	// wmu serializes flushes and, on a node, the redials that replace
	// conn: conn changes only under it.
	wmu  sync.Mutex
	conn net.Conn

	// qmu guards writing, queue and, on a node, the payload arena and
	// batch its senders encode into before they queue.
	qmu     sync.Mutex
	writing bool
	queue   []*outFrame
	// The writer's scratch: the last flush's emptied queue, handed over
	// with the role under qmu, and the flush's frames. WriteTo consumes
	// the net.Buffers it is called on, so each flush hands it wv, a
	// field holding a copy of bufs, which keeps that header off the heap.
	spare []*outFrame
	bufs  net.Buffers
	wv    net.Buffers
}

// queueLocked queues f, the caller holding qmu, and reports whether the
// caller took the writer role.
func (o *outbox) queueLocked(f *outFrame) bool {
	f.box = o
	o.queue = append(o.queue, f)
	if o.writing {
		return false
	}
	o.writing = true
	return true
}

// enqueue is queueLocked taking qmu.
func (o *outbox) enqueue(f *outFrame) bool {
	o.qmu.Lock()
	defer o.qmu.Unlock()
	return o.queueLocked(f)
}

// send queues one frame and returns, once it has been written or has
// failed, the connection it went out on and the error.
func (o *outbox) send(f *outFrame) (net.Conn, error) {
	return o.await(f, o.enqueue(f))
}

// await returns f's answer. A sender that took the writer role when it
// queued (lead) yields once, to let other senders queue behind it, and
// drains; a sender the role is handed to while it waits drains then.
func (o *outbox) await(f *outFrame, lead bool) (net.Conn, error) {
	if lead {
		runtime.Gosched()
		o.drain()
	}
	for {
		<-f.reply
		if !f.lead {
			conn, err := f.conn, f.err
			f.conn, f.err = nil, nil
			return conn, err
		}
		f.lead = false
		o.drain()
	}
}

// drain is one writer's turn: it takes everything queued, writes it in
// one flush, answers every frame taken with the flush's connection and
// error, and hands the role to the oldest frame queued meanwhile, or
// gives it up.
func (o *outbox) drain() {
	o.qmu.Lock()
	taken := o.queue
	o.queue = o.spare[:0]
	o.qmu.Unlock()
	conn, err := o.flush(taken)
	for i, f := range taken {
		taken[i] = nil
		f.conn, f.err = conn, err
		f.reply <- f
	}
	o.qmu.Lock()
	o.spare = taken[:0]
	if len(o.queue) == 0 {
		o.writing = false
		o.qmu.Unlock()
		return
	}
	next := o.queue[0]
	o.qmu.Unlock()
	next.lead = true
	next.reply <- next
}

// flush writes the taken frames in one call under wmu, bounded by the
// earliest deadline among them, and returns the connection it wrote to.
// The tagged-batch encoders refuse a body past wire.MaxFrame, so no
// queued frame fails the size check writeFrame makes.
func (o *outbox) flush(taken []*outFrame) (net.Conn, error) {
	deadline := taken[0].deadline
	for _, f := range taken {
		o.bufs = append(o.bufs, f.frame)
		if f.deadline.Before(deadline) {
			deadline = f.deadline
		}
	}
	o.wmu.Lock()
	conn := o.conn
	o.wv = o.bufs
	err := writeFrames(conn, &o.wv, deadline)
	o.wmu.Unlock()
	clear(o.bufs)
	o.bufs = o.bufs[:0]
	return conn, err
}

// MuxHub is the long-lived hub: it admits one versioned (VersionMux)
// connection per node — replaced by resume hellos as connections break
// — and serves any number of concurrent instances over them. There is no
// global round loop: each StartInstance gets its own HubInstance
// driving its own rounds.
type MuxHub struct {
	n   int
	cfg Config
	ln  net.Listener
	log *eventLog
	// frames is the free list all of the hub's readers draw from.
	frames frameList

	mu sync.Mutex
	// conns holds each node's current connection, live or down; nil
	// means the node never joined or its slot was retired.
	conns []*muxConn
	// changed is closed and replaced whenever conns changes.
	changed chan struct{}
	insts   map[int]*HubInstance
	// idle holds the round scratch of finished instances, a stack that
	// StartInstance takes from before it makes any.
	idle []*roundScratch

	done       chan struct{} // closed, under mu, by Close
	acceptDone chan struct{}
	readers    sync.WaitGroup
}

// NewMuxHub listens on an ephemeral localhost port for n long-lived
// node connections.
func NewMuxHub(n int, cfg Config) (*MuxHub, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: invalid mux hub n=%d", n)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	h := &MuxHub{
		n:          n,
		cfg:        cfg.withDefaults(),
		ln:         ln,
		log:        newEventLog(n),
		frames:     make(frameList, frameListLen),
		conns:      make([]*muxConn, n),
		changed:    make(chan struct{}),
		insts:      make(map[int]*HubInstance),
		done:       make(chan struct{}),
		acceptDone: make(chan struct{}),
	}
	go h.acceptLoop()
	return h, nil
}

// Addr returns the hub's dialable address.
func (h *MuxHub) Addr() string { return h.ln.Addr().String() }

// Report returns a snapshot of the hub's connection-level event log,
// with Dead marking every node some finished instance ended without.
// Per-instance logs live on each HubInstance; MergeReports combines
// them.
func (h *MuxHub) Report() Report { return h.log.snapshot() }

// Close shuts the hub down: the listener and every node connection
// close, reader goroutines drain, and running instances fail their
// remaining gathers at once.
func (h *MuxHub) Close() error {
	h.mu.Lock()
	if h.isClosed() {
		h.mu.Unlock()
		return nil
	}
	close(h.done)
	conns := append([]*muxConn(nil), h.conns...)
	h.mu.Unlock()
	err := h.ln.Close()
	for _, mc := range conns {
		if mc != nil {
			h.downConn(mc)
		}
	}
	<-h.acceptDone
	h.readers.Wait()
	return err
}

// connsChanged wakes everyone waiting on the connection table. The
// caller holds h.mu.
func (h *MuxHub) connsChanged() {
	close(h.changed)
	h.changed = make(chan struct{})
}

// downConn closes a connection and its down signal exactly once.
func (h *MuxHub) downConn(mc *muxConn) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !isDown(mc) {
		close(mc.down)
		_ = mc.conn.Close()
		h.connsChanged()
	}
}

// AwaitNodes blocks until all n nodes have live connections, returning
// as the n-th hello lands, or until the timeout expires. The service
// calls it between wiring the nodes and starting the first instance so
// no instance races its own transport.
func (h *MuxHub) AwaitNodes(timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		h.mu.Lock()
		live := 0
		for _, mc := range h.conns {
			if mc != nil && !isDown(mc) {
				live++
			}
		}
		changed := h.changed
		h.mu.Unlock()
		switch {
		case live == h.n:
			return nil
		case h.isClosed():
			return ErrMuxClosed
		}
		select {
		case <-changed:
		case <-h.done:
		case <-timer.C:
			return fmt.Errorf("transport: %d of %d nodes connected before join deadline", live, h.n)
		}
	}
}

// isClosed reports whether Close has been called.
func (h *MuxHub) isClosed() bool {
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// isDown reports whether a connection's down signal has fired.
func isDown(mc *muxConn) bool {
	select {
	case <-mc.down:
		return true
	default:
		return false
	}
}

// acceptLoop admits connections until the listener closes. Each hello
// is validated concurrently so one slow peer cannot stall the others.
func (h *MuxHub) acceptLoop() {
	defer close(h.acceptDone)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.admit(conn)
		}()
	}
}

// admit validates one connection's versioned hello and installs it as
// the node's shared connection, closing it on any violation. A legacy
// (v1) hello is turned away with the negotiation error. resume == 0 is
// first contact: it takes a free slot or one whose connection is down,
// and a second one for a live node is a duplicate. resume > 0 is a
// replacement connection: it takes the slot over and downs whatever it
// replaces — the hello names the node, which is the transport's
// documented trust boundary. Instances that already declared the node
// dead keep it dead.
func (h *MuxHub) admit(conn net.Conn) {
	reject := func(id, resume int, detail string) {
		h.log.add(EventReject, id, resume, detail)
		_ = conn.Close()
	}
	// The hello is read through the connection's buffered reader, which
	// the node's reader then inherits: a round frame the peer sent on the
	// hello's heels may already sit in its buffer.
	br := newConnReader(conn)
	hello, err := readFrameInto(conn, br, time.Now().Add(h.cfg.JoinTimeout), nil)
	if err != nil {
		reject(-1, 0, "hello read: "+err.Error())
		return
	}
	id, resume, version, err := wire.DecodeHello(hello)
	if err == nil {
		err = wire.CheckVersion(version, wire.VersionMux)
	}
	if err != nil {
		reject(-1, 0, fmt.Sprintf("%v: %v", ErrBadHello, err))
		return
	}
	if id < 0 || id >= h.n {
		reject(id, resume, fmt.Sprintf("%v: id %d out of range", ErrBadHello, id))
		return
	}
	mc := &muxConn{outbox: outbox{conn: conn}, down: make(chan struct{})}
	h.mu.Lock()
	old := h.conns[id]
	switch {
	case h.isClosed():
		err = ErrMuxClosed
	case resume == 0 && old != nil && !isDown(old):
		err = fmt.Errorf("%w: duplicate id %d", ErrBadHello, id)
	default:
		h.conns[id] = mc
		h.connsChanged()
	}
	h.mu.Unlock()
	if err != nil {
		reject(id, resume, err.Error())
		return
	}
	kind := EventDial
	if resume > 0 {
		kind = EventReconnect
	}
	h.log.add(kind, id, resume, "hello accepted")
	if old != nil {
		h.downConn(old)
	}
	h.readers.Add(1)
	go h.reader(id, mc, br)
}

// reader drains one node's shared connection through br, the buffered
// reader admit read the hello with, demultiplexing tagged frames into
// instance lanes. Each frame is read into a buffer of its own off the
// hub's free list and handed on with its batch.
func (h *MuxHub) reader(id int, mc *muxConn, br *bufio.Reader) {
	defer h.readers.Done()
	for {
		f := h.frames.get()
		if err := f.read(mc.conn, br, time.Now().Add(h.cfg.IdleTimeout)); err != nil {
			h.frames.put(f)
			h.connLost(id, mc, "read: "+err.Error())
			return
		}
		inst, round, dropped, err := f.parse(DefaultFloodLimit)
		if err != nil {
			h.frames.put(f)
			h.connLost(id, mc, "decode: "+err.Error())
			return
		}
		if dropped > 0 {
			h.log.add(EventFlood, id, round, fmt.Sprintf("instance %d: truncated %d batch entries over the %d cap", inst, dropped, DefaultFloodLimit))
		}
		h.route(id, inst, round, f)
	}
}

// connLost downs a node's shared connection; unless the hub is closing
// or the connection was already down (replaced), the loss is logged.
func (h *MuxHub) connLost(id int, mc *muxConn, detail string) {
	if !h.isClosed() && !isDown(mc) {
		h.log.add(EventConnLost, id, 0, detail)
	}
	h.downConn(mc)
}

// route hands one parsed frame to its instance lane. Unknown instances
// (finished, or never started) are dropped; lane overflow — impossible
// under lock-step, so always a protocol violation — is dropped and
// logged. A dropped frame is released here.
func (h *MuxHub) route(from, inst, round int, f *frame) {
	h.mu.Lock()
	hi := h.insts[inst]
	h.mu.Unlock()
	if hi == nil {
		h.frames.put(f)
		h.log.add(EventStale, from, round, fmt.Sprintf("dropped frame for unknown instance %d", inst))
		return
	}
	select {
	case hi.mail[from] <- muxBatch{round: round, frame: f}:
	default:
		h.frames.put(f)
		h.log.add(EventFlood, from, round, fmt.Sprintf("instance %d: delivery lane overflow, frame dropped", inst))
	}
}

// write delivers one queued frame, f, on node id's current connection
// through its outbox, bounded by f's deadline. A failed write downs the
// connection, and a down connection is waited out: the node may be
// mid-redial, so the frame goes to the replacement if one is admitted
// before the deadline. A node with no slot at all fails at once.
func (h *MuxHub) write(id int, f *outFrame) error {
	var timer *time.Timer
	for {
		h.mu.Lock()
		mc, changed := h.conns[id], h.changed
		h.mu.Unlock()
		if mc == nil {
			return fmt.Errorf("transport: node %d has no connection", id)
		}
		if !isDown(mc) {
			_, err := mc.send(f)
			if err == nil {
				return nil
			}
			h.connLost(id, mc, "write: "+err.Error())
			continue
		}
		if timer == nil {
			timer = time.NewTimer(time.Until(f.deadline))
			defer timer.Stop()
		}
		select {
		case <-changed:
		case <-h.done:
			return ErrMuxClosed
		case <-timer.C:
			return fmt.Errorf("transport: node %d: no replacement connection before the delivery deadline", id)
		}
	}
}

// joined reports whether node id holds a connection slot.
func (h *MuxHub) joined(id int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.conns[id] != nil
}

// retire frees node id's slot if its connection is down: the node was
// just declared dead with nothing to reach it on, so later instances
// skip it from their first gather instead of each waiting out a round
// deadline. The node's next hello re-admits it.
func (h *MuxHub) retire(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if mc := h.conns[id]; mc != nil && isDown(mc) {
		h.conns[id] = nil
	}
}

// StartInstance registers instance `inst` for a `rounds`-round
// execution and returns its hub-side driver. The instance is live for
// routing immediately; call Run to drive the rounds.
func (h *MuxHub) StartInstance(inst, rounds int) (*HubInstance, error) {
	if inst < 0 || rounds < 0 {
		return nil, fmt.Errorf("transport: invalid instance %d rounds %d", inst, rounds)
	}
	hi := &HubInstance{
		h: h, id: inst, rounds: rounds,
		mail: make([]chan muxBatch, h.n),
		dead: make([]bool, h.n),
		log:  newEventLog(h.n),
	}
	for i := range hi.mail {
		hi.mail[i] = make(chan muxBatch, muxMailDepth)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case h.isClosed():
		return nil, ErrMuxClosed
	case h.insts[inst] != nil:
		return nil, fmt.Errorf("%w: %d", ErrDupInstance, inst)
	}
	h.insts[inst] = hi
	if k := len(h.idle); k > 0 {
		hi.roundScratch, h.idle[k-1] = h.idle[k-1], nil
		h.idle = h.idle[:k-1]
	} else {
		hi.roundScratch = newRoundScratch(h.n)
	}
	return hi, nil
}

// finish garbage-collects a completed instance's routing entry — frames
// still in flight for it are dropped as unknown-instance strays —
// returns its round scratch to the idle stack, and folds its final dead
// marks into the hub's report, which outlives it.
func (h *MuxHub) finish(hi *HubInstance) {
	s := hi.releaseScratch()
	h.mu.Lock()
	delete(h.insts, hi.id)
	h.idle = append(h.idle, s)
	h.mu.Unlock()
	h.log.markDead(hi.dead)
}

// roundScratch is what a HubInstance's rounds run on beyond its lanes.
// The hub keeps the scratch of finished instances on a stack and hands
// it to the instances it starts, so the buffers a round grows serve one
// instance after another; mail, dead and the event log stay per
// instance, because a finished instance's late frame may still be on
// its way to a lane, and its report is read after Run returns.
//
// batches holds the round's gathered frames (nil for a node that sent
// none); inboxes alias them until the round's deliveries are encoded.
// deliveries holds each recipient's sealed frame, one of outFrames. outs
// are the deliveries as queued on the recipients' outboxes, answered on
// replies; conns holds the connections they were queued on and claimed
// the outboxes whose writer role the round loop took.
type roundScratch struct {
	batches    []*frame
	inboxes    [][]wire.BatchMsg
	deliveries [][]byte
	outFrames  [][]byte
	outs       []outFrame
	replies    chan *outFrame
	conns      []*muxConn
	claimed    []*outbox
	// timer bounds each round's gather, re-armed round over round.
	timer *time.Timer
}

// newRoundScratch makes the round scratch of an n-node hub.
func newRoundScratch(n int) *roundScratch {
	s := &roundScratch{
		batches:    make([]*frame, n),
		inboxes:    make([][]wire.BatchMsg, n),
		deliveries: make([][]byte, n),
		outs:       make([]outFrame, n),
		replies:    make(chan *outFrame, n), // one signal per queued delivery (outFrame.reply)
		conns:      make([]*muxConn, n),
	}
	for id := range s.outs {
		s.outs[id].reply = s.replies
	}
	return s
}

// releaseScratch stops the instance's timer and takes its round scratch
// off it, emptied: batches, inboxes and deliveries are cleared, so the
// idle scratch holds no reference into a released frame, and routing
// scratch or delivery buffers that grew past their keep bounds are left
// to the collector.
func (hi *HubInstance) releaseScratch() *roundScratch {
	s := hi.roundScratch
	hi.roundScratch = nil
	if s.timer != nil {
		s.timer.Stop()
	}
	clear(s.batches)
	clear(s.deliveries)
	for id := range s.inboxes {
		s.inboxes[id] = idleScratch(s.inboxes[id])
	}
	for i, buf := range s.outFrames {
		if cap(buf) > frameKeepMax {
			s.outFrames[i] = nil
		}
	}
	return s
}

// slotKeepMax bounds, in entries, each receive or routing scratch slice
// an idle slot keeps. Honest rounds fill a few entries per sender; a
// slice that grew past the bound carried a flood, and it is dropped
// when its slot goes idle, as frames past frameKeepMax are, so that no
// flooding peer pins its memory in idle slots.
const slotKeepMax = 4 * DefaultFloodLimit

// idleScratch empties a scratch slice for an idle slot: every entry up
// to its capacity is zeroed, since entries alias frames that have been
// released, and a slice past slotKeepMax entries is dropped.
func idleScratch[T any](s []T) []T {
	if cap(s) > slotKeepMax {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// HubInstance drives one instance's synchronous rounds over the hub's
// shared connections: gather every live node's tagged batch under a
// per-instance round deadline, route, and deliver tagged frames.
// Deaths are per instance — a node that misses this instance's
// deadline is dead here and untouched elsewhere. The struct, its lanes
// and its log belong to the instance; its round scratch is taken from
// the hub's idle stack by StartInstance and returned by finish.
type HubInstance struct {
	h      *MuxHub
	id     int
	rounds int
	mail   []chan muxBatch
	dead   []bool
	log    *eventLog

	// The round scratch, owned by the sequential Run loop. It is held by
	// pointer: one allocation serves instance after instance, and the
	// struct made per instance stays small.
	*roundScratch
	// expired records that the timer fired during the current round.
	expired bool
}

// Report returns a snapshot of this instance's event log: per-instance
// deaths and round barrier latencies.
func (hi *HubInstance) Report() Report { return hi.log.snapshot() }

// Run drives all rounds and unregisters the instance. It always runs
// to the final round — deaths degrade the execution rather than
// aborting it, and the surviving >= n-t nodes keep the barrier moving.
func (hi *HubInstance) Run() error {
	defer hi.h.finish(hi)
	for round := 1; round <= hi.rounds; round++ {
		hi.runRound(round)
	}
	return nil
}

// die declares node id dead for this instance and retires its hub slot
// if there is no connection left to reach it on.
func (hi *HubInstance) die(id, round int, detail string) {
	hi.log.death(id, round, detail)
	hi.dead[id] = true
	hi.h.retire(id)
}

// runRound executes one synchronous round of this instance: gather
// every live node's batch, route with the partition filter applied,
// encode the deliveries, release the gathered frames and deliver.
func (hi *HubInstance) runRound(round int) {
	start := time.Now()
	faults := hi.h.cfg.Faults
	hi.gatherRound(round)

	// Route: to == sim.Broadcast fans out to every party; messages
	// crossing an injected partition are dropped like the simulator's
	// message-dropping adversary; dead nodes receive nothing. Senders are
	// walked in ascending order and each one's messages in send order, so
	// every inbox comes out in sender order with no sort.
	for id := range hi.inboxes {
		hi.inboxes[id] = hi.inboxes[id][:0]
	}
	cut := 0
	deliver := func(from, to int, payload []byte) {
		switch {
		case hi.dead[to]:
		case faults.Partitioned(from, to, round):
			cut++
		default:
			hi.inboxes[to] = append(hi.inboxes[to], wire.BatchMsg{Addr: from, Payload: payload})
		}
	}
	for from, f := range hi.batches {
		if f == nil {
			continue
		}
		for _, m := range f.msgs {
			if m.Addr == sim.Broadcast {
				for p := 0; p < hi.h.n; p++ {
					deliver(from, p, m.Payload)
				}
			} else if m.Addr >= 0 && m.Addr < hi.h.n {
				deliver(from, m.Addr, m.Payload)
			}
		}
	}
	if cut > 0 {
		// A link fault, so it goes to the hub's log, which outlives the
		// instance.
		hi.h.log.add(EventPartition, -1, round, fmt.Sprintf("instance %d: %d messages cut", hi.id, cut))
	}

	// The delivery frames are encoded copies: nothing reads the inboxes
	// again, so the frames they alias go back before the writes.
	hi.encodeDeliveries(round)
	for _, f := range hi.batches {
		if f != nil {
			hi.h.frames.put(f)
		}
	}
	// Delivery gets a fresh deadline: the gather phase may have spent
	// the whole round budget waiting out a dying node, and the
	// survivors must not be punished for it. Nodes allow two round
	// timeouts on their receive for exactly this reason.
	hi.deliver(round, time.Now().Add(hi.h.cfg.RoundTimeout))
	hi.log.roundDone(round, time.Since(start))
}

// deliver writes the round's delivery frames. Each live recipient's
// frame is queued on its connection's outbox, and the round loop takes
// the writer role of every outbox that had no writer. After one yield,
// which lets the round loops of other instances queue their frames
// behind it, it drains those outboxes one after another, so a frame
// shares its write with whatever other instances queued on the same
// connection. It then waits for every frame's answer, draining any
// outbox whose role is handed to it meanwhile. A frame whose connection
// was down when it was queued, or whose write failed — the connection
// is then downed — goes through MuxHub.write, which waits out a
// replacement until the deadline; a recipient it cannot reach is dead
// for this instance.
func (hi *HubInstance) deliver(round int, deadline time.Time) {
	h := hi.h
	h.mu.Lock()
	copy(hi.conns, h.conns)
	h.mu.Unlock()
	claimed, queued := hi.claimed[:0], 0
	for id, frame := range hi.deliveries {
		f := &hi.outs[id]
		f.frame, f.deadline = frame, deadline
		if mc := hi.conns[id]; frame != nil && mc != nil && !isDown(mc) {
			if mc.enqueue(f) {
				claimed = append(claimed, &mc.outbox)
			}
			queued++
		}
	}
	if len(claimed) > 0 {
		runtime.Gosched()
		for _, o := range claimed {
			o.drain()
		}
	}
	for queued > 0 {
		f := <-hi.replies
		if f.lead {
			f.lead = false
			f.box.drain()
			continue
		}
		queued--
	}
	for id, frame := range hi.deliveries {
		f := &hi.outs[id]
		if frame == nil || f.box != nil && f.err == nil {
			continue
		}
		if f.err != nil {
			h.connLost(id, hi.conns[id], "write: "+f.err.Error())
		}
		if err := h.write(id, f); err != nil {
			hi.die(id, round, "delivery failed: "+err.Error())
		}
	}
	// Emptied for the next round: no frame, answer or connection stays
	// referenced from the scratch.
	for id := range hi.outs {
		hi.outs[id] = outFrame{reply: hi.replies}
	}
	clear(hi.conns)
	clear(claimed)
	hi.claimed = claimed[:0]
}

// encodeDeliveries encodes each live recipient's inbox into its sealed
// delivery frame, deliveries[id] (nil for a dead recipient). A
// recipient whose inbox matches the previous encoded one entry for
// entry — same senders, same payload slices — shares that encoding, so
// a broadcast-only round with no partition or death encodes one frame
// for everyone; a cut or a death splits the run and the next recipient
// gets a frame of its own. Each distinct encoding has a buffer in
// outFrames, reused round over round, so a warm round allocates nothing
// (TestHubEncodeOnceWarmAllocations).
func (hi *HubInstance) encodeDeliveries(round int) {
	used, last := 0, -1 // buffers filled; the recipient the newest one encodes
	for id := range hi.deliveries {
		hi.deliveries[id] = nil
		if hi.dead[id] {
			continue
		}
		if last >= 0 && sameInbox(hi.inboxes[last], hi.inboxes[id]) {
			hi.deliveries[id] = hi.deliveries[last]
			continue
		}
		if used == len(hi.outFrames) {
			hi.outFrames = append(hi.outFrames, nil)
		}
		frame, err := wire.AppendEncodeTaggedBatch(beginFrame(hi.outFrames[used]), hi.id, round, hi.inboxes[id])
		if err != nil {
			hi.die(id, round, "encode delivery: "+err.Error())
			continue
		}
		hi.outFrames[used], hi.deliveries[id], last = frame, sealFrame(frame), id
		used++
	}
}

// sameInbox reports whether two routed inboxes match entry for entry:
// the same sender and the very same payload slice (routing hands every
// recipient of a broadcast the one slice of the gathered frame), so
// they encode to the same bytes.
func sameInbox(a, b []wire.BatchMsg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		p, q := a[i].Payload, b[i].Payload
		if a[i].Addr != b[i].Addr || len(p) != len(q) || len(p) > 0 && &p[0] != &q[0] {
			return false
		}
	}
	return true
}

// gatherRound fills batches with every live node's round-r frame. The
// nodes are gathered one after another in ascending order against one
// deadline, the instance's timer armed for RoundTimeout: a wait on a
// slow or dead node costs the others nothing, because their frames
// queue in their lanes meanwhile, and once the timer has fired the
// remaining lanes are polled without blocking. A churned node
// (FaultInjector churn window down..up) is offline on schedule: it is
// dead from round down, sends nothing through round up, and is
// delivered to again from round up on — pinned by the schedule, not by
// when its replacement connection lands, so replays are exact.
func (hi *HubInstance) gatherRound(round int) {
	rearm(&hi.timer, hi.h.cfg.RoundTimeout)
	hi.expired = false
	faults := hi.h.cfg.Faults
	for id := 0; id < hi.h.n; id++ {
		hi.batches[id] = nil
		if down, up := faults.Churn(id); down > 0 && round >= down && round <= up {
			switch round {
			case down:
				hi.log.death(id, round, fmt.Sprintf("churn window open until round %d", up))
				hi.dead[id] = true
			case up:
				hi.log.revive(id, round, fmt.Sprintf("rejoining after churn at round %d", down))
				hi.dead[id] = false
			}
			continue
		}
		if !hi.dead[id] {
			hi.batches[id] = hi.gather(id, round)
		}
	}
}

// rearm makes *t fire after d: a new timer the first time, the same one
// stopped, drained and reset after that. go.mod's go 1.22 keeps the
// pre-1.23 timer channel, where a timer that fired unobserved still
// holds its tick; the drain takes it without ever blocking, under either
// channel semantics, so the next wait starts on a fresh deadline.
func rearm(t **time.Timer, d time.Duration) {
	if *t == nil {
		*t = time.NewTimer(d)
		return
	}
	if !(*t).Stop() {
		select {
		case <-(*t).C:
		default:
		}
	}
	(*t).Reset(d)
}

// gather awaits node id's round-r batch on this instance's lane,
// skipping stale rounds, until the round's timer declares the node dead
// for this instance; once the timer has fired, the lane is only polled.
// Connection state is not consulted: lanes outlive connections, so a
// node that bounces its connection and resends inside the deadline
// loses nothing. Only a node with no connection slot at all is dead
// without a wait. The returned frame is the caller's to release; stale
// and future frames are released here.
func (hi *HubInstance) gather(id, round int) *frame {
	if !hi.h.joined(id) {
		hi.die(id, round, "no connection")
		return nil
	}
	for {
		var b muxBatch
		if hi.expired {
			select {
			case b = <-hi.mail[id]:
			default:
				hi.die(id, round, "no batch before round deadline")
				return nil
			}
		} else {
			select {
			case b = <-hi.mail[id]:
			case <-hi.timer.C:
				hi.expired = true
				continue
			case <-hi.h.done:
				hi.die(id, round, "hub closed")
				return nil
			}
		}
		switch {
		case b.round == round:
			return b.frame
		case b.round < round:
			hi.h.frames.put(b.frame)
			hi.log.add(EventStale, id, round, fmt.Sprintf("discarded round-%d frame", b.round))
		default:
			// Lock-step forbids future rounds: the node cannot have seen
			// round r's delivery before the hub sent it.
			hi.h.frames.put(b.frame)
			hi.die(id, round, fmt.Sprintf("frame from future round %d", b.round))
			return nil
		}
	}
}

// MuxNode is one party's long-lived connection to a MuxHub. Concurrent
// RunInstance calls share the connection: a reader goroutine
// demultiplexes hub deliveries into per-instance lanes, and sends go
// through the connection's outbox. When the connection breaks the node
// redials with a resume hello; lanes stay registered throughout.
type MuxNode struct {
	id   int
	addr string
	cfg  Config
	log  *eventLog
	// frames is the reader's free list; instances release into it.
	frames frameList
	// The outbox's conn is the current shared connection, written under
	// wmu and mu; wmu serializes flushes and redials, so nobody writes
	// to a connection that is being replaced. Under qmu, every
	// instance's round sends are encoded through the node's one payload
	// arena and batch into the instance slot's frame (sendRound).
	outbox
	arena []byte
	batch []wire.BatchMsg

	mu    sync.Mutex
	lanes map[int]chan muxBatch
	// slots holds the idle instance slots, a stack that RunInstance
	// takes from before it makes any.
	slots []*instanceRun
	// seeded counts the frames register has put on the free list.
	seeded int
	err    error // terminal: closed, or redial attempts exhausted

	valMu      sync.Mutex
	validation validate.Report

	done       chan struct{} // closed once err is set
	readerDone chan struct{}
}

// NewMuxNode dials the hub with capped exponential backoff, announces
// party `id` with a versioned (VersionMux) hello, and starts the
// shared-connection reader.
func NewMuxNode(addr string, id int, cfg Config) (*MuxNode, error) {
	nd := &MuxNode{
		id:         id,
		addr:       addr,
		cfg:        cfg.withDefaults(),
		log:        newEventLog(0),
		frames:     make(frameList, frameListLen),
		lanes:      make(map[int]chan muxBatch),
		done:       make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	conn, err := dial(addr, id, 0, nd.cfg, nd.log, nd.done)
	if err != nil {
		return nil, err
	}
	nd.conn = conn
	go nd.reader(conn)
	return nd, nil
}

// dial connects to the hub at addr with capped exponential backoff and
// announces node id, logging every attempt. resume is 0 on first
// contact and the current round (any positive value) when replacing a
// lost connection. Closing stop abandons the backoff waits.
func dial(addr string, id, resume int, cfg Config, log *eventLog, stop <-chan struct{}) (net.Conn, error) {
	var last error
	backoff := backoffBase
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			wait := jitterBackoff(backoff, id, resume, attempt)
			log.add(EventRetry, id, resume, fmt.Sprintf("attempt %d backing off %s: %v", attempt, wait, last))
			select {
			case <-time.After(wait):
			case <-stop:
				return nil, ErrMuxClosed
			}
			backoff = nextBackoff(backoff, backoffMax)
		}
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			last = err
			continue
		}
		hello := framed(wire.EncodeHello(id, resume))
		if err := writeFrame(conn, hello, time.Now().Add(cfg.RoundTimeout)); err != nil {
			_ = conn.Close()
			last = err
			continue
		}
		kind := EventDial
		if resume > 0 {
			kind = EventReconnect
		}
		log.add(kind, id, resume, "connected")
		return conn, nil
	}
	return nil, fmt.Errorf("transport: dial %s after %d attempts: %w", addr, dialAttempts, last)
}

// redial replaces the shared connection and returns the current one.
// old names the connection the caller saw fail, so of several callers
// racing on one loss exactly one dials; nil replaces whatever is
// current (an injected drop). Exhausting the dial attempts is terminal
// for the node.
func (nd *MuxNode) redial(old net.Conn, resume int, why string) (net.Conn, error) {
	nd.wmu.Lock()
	defer nd.wmu.Unlock()
	nd.mu.Lock()
	cur, err := nd.conn, nd.err
	nd.mu.Unlock()
	if err != nil || (old != nil && old != cur) {
		return cur, err
	}
	nd.log.add(EventConnLost, nd.id, resume, why)
	_ = cur.Close()
	conn, err := dial(nd.addr, nd.id, resume, nd.cfg, nd.log, nd.done)
	if err != nil {
		nd.fail(err)
		return nil, err
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.err != nil { // closed while dialing
		_ = conn.Close()
		return nil, nd.err
	}
	nd.conn = conn
	return conn, nil
}

// fail ends the node: every blocked or later receive returns err.
func (nd *MuxNode) fail(err error) {
	nd.mu.Lock()
	if nd.err == nil {
		nd.err = err
		close(nd.done)
	}
	conn := nd.conn
	nd.mu.Unlock()
	_ = conn.Close()
}

// Close shuts the node's shared connection down; running instances
// fail their next receive.
func (nd *MuxNode) Close() error {
	nd.fail(ErrMuxClosed)
	<-nd.readerDone
	return nil
}

// Report returns the node's connection-level event log plus the merged
// ingress-validation report across all completed instances.
func (nd *MuxNode) Report() Report {
	rep := nd.log.snapshot()
	nd.valMu.Lock()
	v := nd.validation
	nd.valMu.Unlock()
	rep.Validation = &v
	return rep
}

// reader drains the shared connection through a buffered reader of its
// own, demultiplexing hub deliveries into instance lanes. A failed read
// redials — with resume 1, since a connection shared by many instances
// has no one current round — and carries on with whatever connection is
// then current, its buffer reset onto it: no byte the old connection
// left behind is parsed. It exits only once the node has failed for
// good. Each delivery is read into a frame of its own off the node's
// free list and handed on with its batch; a delivery that goes nowhere
// is released here.
func (nd *MuxNode) reader(conn net.Conn) {
	defer close(nd.readerDone)
	br := newConnReader(conn)
	for {
		f := nd.frames.get()
		if err := f.read(conn, br, time.Now().Add(nd.cfg.IdleTimeout)); err != nil {
			nd.frames.put(f)
			if conn, err = nd.redial(conn, 1, "read: "+err.Error()); err != nil {
				return
			}
			br.Reset(conn)
			continue
		}
		inst, round, _, err := f.parse(-1) // the hub capped what it relayed
		if err != nil {
			nd.frames.put(f)
			nd.log.add(EventStale, nd.id, 0, "undecodable delivery: "+err.Error())
			continue
		}
		nd.mu.Lock()
		lane := nd.lanes[inst]
		nd.mu.Unlock()
		if lane == nil {
			nd.frames.put(f)
			nd.log.add(EventStale, nd.id, round, fmt.Sprintf("dropped delivery for unknown instance %d", inst))
			continue
		}
		select {
		case lane <- muxBatch{round: round, frame: f}:
		default:
			nd.frames.put(f)
			nd.log.add(EventFlood, nd.id, round, fmt.Sprintf("instance %d: lane overflow, delivery dropped", inst))
		}
	}
}

// register installs a fresh lane for an instance and tops the free
// list up to one frame per open lane plus the reader's. Under lock-step
// that is every frame the node can have in flight, so the reader never
// finds the list empty, and how many frames a node makes — each grows
// to the largest delivery it comes to carry, n senders' worth — follows
// from how many instances it runs at once rather than from how the
// scheduler interleaves the reader with the round loops. Two runs of
// one workload then allocate alike from their first instance on
// (cmd/proxperf holds short same-seed runs to 15 %).
func (nd *MuxNode) register(inst int) (chan muxBatch, error) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	switch {
	case nd.err != nil:
		return nil, nd.err
	case nd.lanes[inst] != nil:
		return nil, fmt.Errorf("%w: %d", ErrDupInstance, inst)
	}
	lane := make(chan muxBatch, muxMailDepth)
	nd.lanes[inst] = lane
	for ; nd.seeded < len(nd.lanes)+1; nd.seeded++ {
		nd.frames.put(new(frame))
	}
	return lane, nil
}

// unregister garbage-collects an instance's lane.
func (nd *MuxNode) unregister(inst int) {
	nd.mu.Lock()
	delete(nd.lanes, inst)
	nd.mu.Unlock()
}

// sendRound encodes the slot's round sends through the node's payload
// arena and batch into the slot's own frame, under qmu, queues the
// sealed frame on the connection's outbox in the same critical section
// and waits for its write. The arena and batch serve every instance the
// node runs, and the frame belongs to the slot until its answer comes,
// so what the node allocates follows from how many instances it runs at
// once, not from how their sends interleave. A broken connection is
// absorbed once: the caller redials the connection its frame failed on
// — of several callers that saw one loss exactly one dials — and queues
// the same frame again. An encode error fails the round as an encode,
// not as a send.
func (ir *instanceRun) sendRound(round int, sends []sim.Send) error {
	nd, f := ir.node, &ir.out
	if f.reply == nil {
		f.reply = make(chan *outFrame, 1)
	}
	nd.qmu.Lock()
	frame, err := nd.encodeSends(ir.inst, round, sends, f.frame)
	if err != nil {
		nd.qmu.Unlock()
		return fmt.Errorf("transport: instance %d round %d encode: %w", ir.inst, round, err)
	}
	if cap(nd.arena) > frameKeepMax {
		// An oversized arena goes to the collector, as frames do.
		nd.arena, nd.batch = nil, nil
	}
	f.frame, f.deadline = frame, time.Now().Add(nd.cfg.RoundTimeout)
	lead := nd.queueLocked(f)
	nd.qmu.Unlock()
	conn, err := nd.await(f, lead)
	if err != nil {
		if _, derr := nd.redial(conn, round, "send: "+err.Error()); derr != nil {
			err = errors.Join(err, derr)
		} else {
			f.deadline = time.Now().Add(nd.cfg.RoundTimeout)
			_, err = nd.send(f)
		}
	}
	if cap(f.frame) > frameKeepMax {
		// An oversized frame goes to the collector too.
		f.frame = nil
	}
	if err != nil {
		return fmt.Errorf("transport: instance %d round %d send: %w", ir.inst, round, err)
	}
	return nil
}

// encodeSends encodes a machine's sends through the node's payload
// arena and batch into frame, tagged with the instance, and returns the
// sealed frame; the caller holds qmu. Payloads are appended into the
// arena and referenced by full-slice sub-slices, so arena growth can
// never let a later payload clobber an earlier one. Once the arena, the
// batch and the slot's frame have grown to the largest round, sending
// allocates nothing.
func (nd *MuxNode) encodeSends(inst, round int, sends []sim.Send, frame []byte) ([]byte, error) {
	arena := nd.arena[:0]
	batch := nd.batch[:0]
	var err error
	for _, s := range sends {
		start := len(arena)
		if arena, err = wire.AppendEncode(arena, s.Payload); err != nil {
			return nil, err
		}
		batch = append(batch, wire.BatchMsg{Addr: s.To, Payload: arena[start:len(arena):len(arena)]})
	}
	nd.arena = arena
	nd.batch = batch
	frame, err = wire.AppendEncodeTaggedBatch(beginFrame(frame), inst, round, batch)
	if err != nil {
		return nil, err
	}
	return sealFrame(frame), nil
}

// instanceRun is an instance slot: the decoder, the ingress validator,
// the receive scratch and the send frame one RunInstance call runs on.
// A node keeps its idle slots on a stack, and each call takes one for
// its instance and returns it reset (putSlot), so concurrent instances
// share nothing but the connection, its outbox and the node's payload
// arena, and consecutive ones share the slot's grown buffers and maps.
// All scratch is reused round over round, so a steady-state round
// allocates nothing.
type instanceRun struct {
	node    *MuxNode
	inst    int
	ingress *validate.Validator
	dec     *wire.Decoder

	in       []validate.Inbound
	verdicts []bool
	inbox    []sim.Message
	// out is the round's sealed send frame as queued on the outbox; its
	// buffer is reused round over round.
	out outFrame
	// timer bounds each round's receive, re-armed round over round.
	timer *time.Timer
}

// RunInstance executes one machine as instance `inst` over the shared
// connection and returns its output. Safe to call concurrently for
// distinct instances. Each call runs on an idle instance slot, or a new
// one when none is idle, whose ingress validator comes from
// Config.NewIngress; the validator's report merges into the node's
// Report when the instance ends. A node configured without NewIngress
// refuses to run: it does not know n, so it cannot pick a screen
// itself.
//
// Injected faults apply to this node's own traffic, and every instance
// consults the injector with its own round number: a scheduled
// crash-stop returns ErrCrashed, and a drop or churn bounces the
// connection all of the node's instances share — instances with a
// delivery in flight at that moment may lose it and with it the node,
// which is what a connection fault is.
func (nd *MuxNode) RunInstance(inst, rounds int, machine sim.Machine) (any, error) {
	if nd.cfg.NewIngress == nil {
		return nil, fmt.Errorf("transport: instance %d: node %d has no Config.NewIngress to screen its ingress", inst, nd.id)
	}
	lane, err := nd.register(inst)
	if err != nil {
		return nil, err
	}
	defer nd.unregister(inst)
	ir := nd.takeSlot(inst)
	defer nd.putSlot(ir)

	inj := nd.cfg.Faults
	crash := inj.CrashRound(nd.id)
	churnDown, churnUp := inj.Churn(nd.id)
	sends := machine.Start()
	for round := 1; round <= rounds; round++ {
		if round == crash {
			nd.log.add(EventCrash, nd.id, round, "crash-stop by schedule")
			return nil, fmt.Errorf("%w: round %d", ErrCrashed, crash)
		}
		// The receive allows two round timeouts: the hub's gather may
		// spend a full one waiting out a dying peer before it delivers.
		wait := 2 * nd.cfg.RoundTimeout
		if round == churnDown {
			// Churn: bounce the connection and sit the window out. The
			// hub skips this node through round churnUp and delivers to it
			// again from there, so the machine steps through the missed
			// rounds on empty inboxes — what every survivor saw of this
			// node — keeping its round counter in lock-step, then awaits
			// round churnUp's delivery without having sent.
			nd.log.add(EventChurn, nd.id, round, fmt.Sprintf("offline until round %d", churnUp))
			if _, err := nd.redial(nil, round, "churn window opens"); err != nil {
				return nil, fmt.Errorf("transport: instance %d round %d churn rejoin: %w", inst, round, err)
			}
			for ; round < churnUp && round < rounds; round++ {
				sends = machine.Deliver(round, nil)
			}
			wait *= time.Duration(churnUp - churnDown + 2)
		} else if err := ir.send(round, sends); err != nil {
			return nil, err
		}
		f, err := ir.awaitLane(lane, round, wait)
		if err != nil {
			return nil, fmt.Errorf("transport: instance %d round %d receive: %w", inst, round, err)
		}
		// The inbox's payload blobs alias the frame, so the frame is
		// released only once the machine has stepped; what the machine
		// keeps past Deliver it has copied.
		inbox := ir.decodeRound(round, f.msgs)
		sends = machine.Deliver(round, inbox)
		nd.frames.put(f)
	}
	out, ok := machine.Output()
	if !ok {
		return nil, fmt.Errorf("transport: instance %d machine produced no output", inst)
	}
	return out, nil
}

// send transmits one round's batch with the injector's connection
// drop, send delay and frame duplication applied.
func (ir *instanceRun) send(round int, sends []sim.Send) error {
	nd, inj := ir.node, ir.node.cfg.Faults
	if inj.DropConn(nd.id, round) {
		if _, err := nd.redial(nil, round, "injected connection drop"); err != nil {
			return fmt.Errorf("transport: instance %d round %d reconnect: %w", ir.inst, round, err)
		}
	}
	if d := inj.Delay(nd.id, round); d > 0 {
		nd.log.add(EventDelay, nd.id, round, fmt.Sprintf("delaying send by %s", d))
		time.Sleep(d)
	}
	if err := ir.sendRound(round, sends); err != nil {
		return err
	}
	if inj.Duplicate(nd.id, round) {
		nd.log.add(EventDup, nd.id, round, "duplicating batch frame")
		// Best effort: the duplicate models a retransmission race, so its
		// own failure is not one.
		_ = ir.sendRound(round, sends)
	}
	return nil
}

// takeSlot returns an idle instance slot set up for inst, or a new one
// when none is idle. Every instance of one workload has the same shape,
// so which slot serves which instance does not matter, and a node ends
// up with as many slots as it ever ran instances at once.
func (nd *MuxNode) takeSlot(inst int) *instanceRun {
	var ir *instanceRun
	nd.mu.Lock()
	if k := len(nd.slots); k > 0 {
		ir, nd.slots[k-1] = nd.slots[k-1], nil
		nd.slots = nd.slots[:k-1]
	}
	nd.mu.Unlock()
	if ir == nil {
		ir = &instanceRun{node: nd, dec: wire.NewDecoder(), ingress: nd.cfg.NewIngress(nd.id)}
	}
	ir.inst = inst
	return ir
}

// putSlot ends an instance on its slot: it folds the instance's ingress
// screening into the node's aggregate, resets the validator and the
// decoder to the state they were built in, stops the timer, empties the
// receive scratch — whose entries alias frames already released — and
// puts the slot back on the idle stack.
func (nd *MuxNode) putSlot(ir *instanceRun) {
	rep := ir.ingress.Report()
	nd.valMu.Lock()
	nd.validation.Merge(rep)
	nd.valMu.Unlock()
	ir.ingress.Reset()
	ir.dec.Reset()
	if ir.timer != nil {
		ir.timer.Stop()
	}
	ir.in = idleScratch(ir.in)
	ir.verdicts = idleScratch(ir.verdicts)
	ir.inbox = idleScratch(ir.inbox)
	nd.mu.Lock()
	nd.slots = append(nd.slots, ir)
	nd.mu.Unlock()
}

// awaitLane receives the round-r delivery off an instance lane,
// skipping stale rounds, until the wait expires on the instance's timer
// or the node fails. The returned frame is the caller's to release;
// stale and future ones are released here.
func (ir *instanceRun) awaitLane(lane chan muxBatch, round int, wait time.Duration) (*frame, error) {
	nd := ir.node
	rearm(&ir.timer, wait)
	for {
		select {
		case b := <-lane:
			switch {
			case b.round == round:
				return b.frame, nil
			case b.round > round:
				nd.frames.put(b.frame)
				return nil, fmt.Errorf("hub delivered round %d during round %d", b.round, round)
			default:
				nd.frames.put(b.frame)
			}
		case <-nd.done:
			return nil, fmt.Errorf("connection lost: %w", nd.err)
		case <-ir.timer.C:
			return nil, errors.New("no delivery before deadline")
		}
	}
}

// decodeRound turns one instance round's delivered batch into the
// machine inbox: decode through the slot's interning Decoder,
// screen everything in a single batched ingress call, and route the
// admitted payloads. The hub stamps the authentic sender into Addr, so
// the validator's sender checks bind to real identities. The call is
// the transport's only screen: swapping it for a loop that admits
// whatever decodes turns TestHubFloodControl and chaos's
// TestByzRejectionClasses red (scripts/lint_mutation.sh, mutation 1). The inbox carries decoded
// values, which never alias msgs (TestIngressSteadyStateAllocations
// pins the zero-allocation steady state) — except the Data of the two
// payload blob classes, which sub-slices msgs' frame and is valid until
// the caller releases that frame, after Deliver
// (TestPayloadRoundDecodeAllocations pins that no blob is copied).
func (ir *instanceRun) decodeRound(round int, msgs []wire.BatchMsg) []sim.Message {
	ir.in = ir.in[:0]
	for i := range msgs {
		payload, err := ir.dec.DecodeAlias(msgs[i].Payload)
		ir.in = append(ir.in, validate.Inbound{From: msgs[i].Addr, Raw: msgs[i].Payload, Payload: payload, Err: err})
	}
	verdicts := ir.ingress.AdmitBatch(round, ir.in, ir.verdicts[:0])
	ir.verdicts = verdicts
	ir.inbox = ir.inbox[:0]
	for i := range ir.in {
		if !verdicts[i] {
			continue
		}
		ir.inbox = append(ir.inbox, sim.Message{From: ir.in[i].From, To: ir.node.id, Round: round, Payload: ir.in[i].Payload})
	}
	return ir.inbox
}
