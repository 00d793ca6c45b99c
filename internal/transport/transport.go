// Package transport runs the repository's protocol machines over real
// TCP connections on localhost: one hub synchronizes rounds, one node
// per party executes its sim.Machine unchanged, and payloads travel in
// the internal/wire binary format. Each node holds one long-lived
// connection that carries any number of concurrent protocol instances
// (mux.go); a single execution (RunLocal, internal/chaos) is the same
// hub and nodes running one instance behind the same ingress screen,
// so every fault schedule and attack suite exercises the code the
// proxserve daemon runs.
//
// The hub enforces the synchronous model per instance: a round's
// traffic is gathered from every live node before anything is
// delivered, so a message sent at the beginning of a round arrives by
// its end, exactly as in Section 2.1. Unlike the deterministic
// simulator, the transport tolerates the deployment faults practical BA
// systems treat as the common case: nodes dial with capped exponential
// backoff, a broken connection is replaced mid-execution by a resume
// hello, and the hub marks a node dead for an instance once its
// per-round deadline expires — from then on the dead node's slots
// deliver empty, matching the simulator's strongly-rushing drop
// semantics, and the round barrier keeps moving for the surviving
// >= n-t nodes. A pluggable FaultInjector induces crash-stop, drops,
// delays, duplicated frames, partitions and churn on demand;
// internal/chaos builds seeded schedules on top of it, including
// Byzantine peers that speak the wire format maliciously. Every honest
// node screens its ingress through internal/validate
// (Config.NewIngress), and the hub truncates flooding senders at
// DefaultFloodLimit. The adaptive rushing adversary of the proofs still
// lives in the simulator (internal/sim), which shares the same Machine
// interface.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"proxcensus/internal/sim"
	"proxcensus/internal/validate"
	"proxcensus/internal/wire"
)

// Errors returned by the transport.
var (
	// ErrBadHello indicates a node announced an invalid or duplicate ID.
	ErrBadHello = errors.New("transport: invalid hello")
	// ErrFrameTooLarge indicates an incoming frame exceeded the limit.
	ErrFrameTooLarge = errors.New("transport: frame too large")
	// ErrCrashed marks a node that crash-stopped on schedule (fault
	// injection); the chaos harness distinguishes it from real failures.
	ErrCrashed = errors.New("transport: node crashed by schedule")
)

// maxFrame bounds a single frame (a full round batch) on the wire.
const maxFrame = wire.MaxFrame

// Config tunes the timing and fault behaviour of a TCP execution. The
// zero value of any field falls back to its default.
type Config struct {
	// RoundTimeout is the per-instance round deadline: the hub declares a
	// node dead for an instance if its batch does not arrive within it,
	// and nodes bound every send/receive by it.
	RoundTimeout time.Duration
	// JoinTimeout bounds the initial gathering of hellos; nodes that
	// never join are dead from round 1 of every instance.
	JoinTimeout time.Duration
	// IdleTimeout bounds one read on a node's shared connection, which is
	// legitimately silent between instances. Zero selects
	// DefaultIdleTimeout.
	IdleTimeout time.Duration
	// Faults injects deployment faults; nil means NoFaults.
	Faults FaultInjector
	// NewIngress builds a node's wire-ingress validator: every delivered
	// payload passes through it before reaching the machine, and the
	// screening report surfaces in the node's transport.Report. A node
	// calls it once per instance slot, not once per instance: the slot
	// serves one instance after another, and the transport merges the
	// validator's report and resets it (validate.Validator.Reset)
	// between them. A MuxNode refuses to run an instance without it;
	// RunLocal fills a nil one with validate.General over its machine
	// count.
	NewIngress func(id int) *validate.Validator
}

// DefaultFloodLimit caps how many batch entries the hub materializes
// from one node's round frame; the surplus is truncated and logged as
// an EventFlood. Honest nodes send at most one message per peer per
// round (n entries, or one broadcast), so the cap leaves ample headroom
// while keeping a flooding peer from stuffing 64 MiB frames into every
// honest inbox.
const DefaultFloodLimit = 256

// A node makes at most dialAttempts dial attempts per connection, each
// bounded by dialTimeout, with a capped exponential backoff from
// backoffBase up to backoffMax between them.
const (
	dialTimeout  = 5 * time.Second
	dialAttempts = 4
	backoffBase  = 25 * time.Millisecond
	backoffMax   = 2 * time.Second
)

// DefaultConfig returns the production defaults: generous deadlines
// (localhost rounds complete in microseconds, so they only catch
// hangs).
func DefaultConfig() Config {
	return Config{
		RoundTimeout: 30 * time.Second,
		JoinTimeout:  30 * time.Second,
		Faults:       NoFaults{},
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = d.RoundTimeout
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = d.JoinTimeout
	}
	if c.Faults == nil {
		c.Faults = NoFaults{}
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	return c
}

// nextBackoff doubles a backoff up to the cap.
func nextBackoff(cur, max time.Duration) time.Duration {
	cur *= 2
	if cur > max {
		return max
	}
	return cur
}

// jitterBackoff spreads one backoff wait over (backoff/2, backoff]
// with a hash of (id, resume, attempt): deterministic for a given
// retry, but decorrelated across nodes so simultaneous churn rejoins
// and mass reconnects don't thundering-herd the hub on synchronized
// retry ticks.
func jitterBackoff(backoff time.Duration, id, resume, attempt int) time.Duration {
	half := backoff / 2
	if half <= 0 {
		return backoff
	}
	h := mix64(uint64(id)*0x9e3779b97f4a7c15 ^ uint64(resume)*0xbf58476d1ce4e5b9 ^ uint64(attempt+1)*0x94d049bb133111eb)
	return half + time.Duration(h%uint64(half)+1)
}

// frameHeader is the length prefix in front of every frame body on the
// wire: a big-endian uint32 byte count.
const frameHeader = 4

// connBufSize sizes each connection reader's buffer. A hub round or
// delivery frame of a digest workload is a few KiB, so one read
// syscall takes in every frame the peer has queued; a larger body is
// read past the buffer straight into its frame.
const connBufSize = 64 << 10

// newConnReader returns the buffered reader a connection's frames are
// read through for as long as its reader goroutine runs.
func newConnReader(conn net.Conn) *bufio.Reader { return bufio.NewReaderSize(conn, connBufSize) }

// beginFrame returns buf emptied and with frameHeader bytes reserved
// for the length prefix: the senders encode their bodies behind it into
// reused buffers, and sealFrame fills it in.
func beginFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// sealFrame writes a begun frame's length prefix and returns the frame.
// Senders seal at encode time, so a frame shared by many recipients is
// only ever read while it is written.
func sealFrame(frame []byte) []byte {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeader))
	return frame
}

// framed copies a body behind a length prefix into a fresh frame, for
// the cold sender: the hello.
func framed(body []byte) []byte {
	return sealFrame(append(beginFrame(make([]byte, 0, frameHeader+len(body))), body...))
}

// writeFrames sends sealed frames — each a length prefix and body — in
// one call bounded by the deadline: conn.Write for one frame, a vectored
// write for several (net.Buffers, one writev on a TCP connection), which
// consumes *frames. Every frame write of the transport goes through it;
// the mux's outboxes call it once per flush (outbox.flush).
func writeFrames(conn net.Conn, frames *net.Buffers, deadline time.Time) error {
	if err := conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	if len(*frames) == 1 {
		_, err := conn.Write((*frames)[0])
		return err
	}
	_, err := frames.WriteTo(conn)
	return err
}

// writeFrame sends one sealed frame on its own, size-checked: the hello
// and RawClient's batches, which are written outside any outbox.
func writeFrame(conn net.Conn, frame []byte, deadline time.Time) error {
	if size := len(frame) - frameHeader; size > maxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	one := net.Buffers{frame}
	return writeFrames(conn, &one, deadline)
}

// readFrame receives a length-prefixed frame bounded by the deadline
// into a fresh buffer, reading conn directly: nothing past the frame is
// consumed.
func readFrame(conn net.Conn, deadline time.Time) ([]byte, error) {
	return readFrameInto(conn, conn, deadline, nil)
}

// readFrameInto receives a length-prefixed frame from r — conn itself,
// or the connection's buffered reader — reading the header and then the
// body into buf (grown as needed) so a pooled caller buffer makes
// steady-state reads allocation-free (TestReadFrameIntoWarmAllocations).
// Through a bufio.Reader a frame already buffered costs no syscall and a
// body larger than the buffer is read straight into buf. conn's read
// deadline is armed before any read that can block: every read unless
// r already buffers the whole frame, which it then hands over without
// touching the socket. The result aliases buf's possibly-regrown backing
// array; buf (extended) is returned even on error so pooled callers keep
// their capacity.
func readFrameInto(conn net.Conn, r io.Reader, deadline time.Time, buf []byte) ([]byte, error) {
	if !frameBuffered(r) {
		if err := conn.SetReadDeadline(deadline); err != nil {
			return buf, err
		}
	}
	// Not a local array: io.ReadFull's interface call would move it to
	// the heap on every frame.
	buf = slices.Grow(buf[:0], frameHeader)
	hdr := buf[:frameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf, err
	}
	size := int(binary.BigEndian.Uint32(hdr))
	if size > maxFrame {
		return buf, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	if cap(buf) < size {
		// Grow, not make: the capacity rounds up to the allocator's size
		// class, so the next round's frame — the same batch a few bytes
		// longer — fits the slack instead of costing a second buffer.
		buf = slices.Grow([]byte(nil), size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	return buf, nil
}

// frameBuffered reports whether r is a buffered reader that already
// holds the next frame whole, length prefix and body, so reading it
// cannot block.
func frameBuffered(r io.Reader) bool {
	br, ok := r.(*bufio.Reader)
	if !ok || br.Buffered() < frameHeader {
		return false
	}
	hdr, err := br.Peek(frameHeader)
	return err == nil && br.Buffered()-frameHeader >= int(binary.BigEndian.Uint32(hdr))
}

// RunResult collects everything a faulty local execution produced:
// per-node outputs and errors plus the hub's and nodes' structured
// event reports.
type RunResult struct {
	// Outputs holds machine outputs by party ID (nil for failed nodes).
	Outputs []any
	// Errs holds per-node errors (ErrCrashed for scheduled crashes).
	Errs []error
	// Hub is the hub's event report — connection events merged with the
	// instance's deaths, reconnects and latencies.
	Hub Report
	// Nodes holds each node's own event report, by party ID.
	Nodes []Report
}

// LocalInstance is the instance tag a local execution runs under.
const LocalInstance = 0

// RunLocal executes a full protocol locally over TCP under the given
// configuration: it starts a hub, connects one node per machine, runs
// the protocol as a single instance and returns the per-node outcomes
// plus the structured reports. Every node screens its ingress: a nil
// cfg.NewIngress screens with validate.General(len(machines)). Some
// slots may be played by wire-level peers instead of machines: raw[id],
// when set, is handed the hub address, claims slot id itself (DialRaw)
// and speaks for it; its error lands in Errs[id]. This is how
// internal/chaos seats Byzantine nodes. The returned error covers
// hub-level failures only — individual node failures (crashes, deaths)
// land in RunResult.Errs so callers can assert on the survivors.
func RunLocal(machines []sim.Machine, rounds int, cfg Config, raw map[int]func(addr string) error) (*RunResult, error) {
	n := len(machines)
	if cfg.NewIngress == nil {
		cfg.NewIngress = func(int) *validate.Validator { return validate.New(validate.General(n)) }
	}
	hub, err := NewMuxHub(n, cfg)
	if err != nil {
		return nil, err
	}
	defer func() { _ = hub.Close() }()
	// The instance is registered before anyone can dial, so a fast
	// peer's round-1 frame always finds its lane.
	hi, err := hub.StartInstance(LocalInstance, rounds)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Outputs: make([]any, n), Errs: make([]error, n), Nodes: make([]Report, n)}
	nodes := make([]*MuxNode, n)
	var wg sync.WaitGroup
	for i := range machines {
		if play := raw[i]; play != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res.Errs[i] = play(hub.Addr())
			}()
			continue
		}
		if nodes[i], res.Errs[i] = NewMuxNode(hub.Addr(), i, cfg); res.Errs[i] == nil {
			defer func(nd *MuxNode) { _ = nd.Close() }(nodes[i])
		}
	}
	// Whoever has not joined by the deadline is dead from round 1; only
	// a closed hub is fatal.
	if err := hub.AwaitNodes(hub.cfg.JoinTimeout); errors.Is(err, ErrMuxClosed) {
		return nil, err
	}
	for i, nd := range nodes {
		if nd == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.Outputs[i], res.Errs[i] = nd.RunInstance(LocalInstance, rounds, machines[i])
		}()
	}
	err = hi.Run()
	wg.Wait()
	res.Hub = MergeReports(hub.Report(), hi.Report())
	for i, nd := range nodes {
		if nd != nil {
			res.Nodes[i] = nd.Report()
		}
	}
	return res, err
}
