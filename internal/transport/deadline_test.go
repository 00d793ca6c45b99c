package transport

import (
	"bytes"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"proxcensus/internal/wire"
)

// The tests in this file pin the transport's frame I/O to its
// deadlines: readFrameInto arms a read deadline before every read that
// can block, writeFrames a write deadline on every write. Each test
// provokes a timeout of a few hundred milliseconds and gives up at
// deadlineWatchdog, so an I/O call left without its deadline — which
// would block forever — fails the test instead of hanging the binary.
const deadlineWatchdog = 1500 * time.Millisecond

// idleConfig is quickConfig with a shared-connection idle timeout short
// enough to expire inside a test.
func idleConfig() Config {
	cfg := quickConfig()
	cfg.IdleTimeout = 150 * time.Millisecond
	return cfg
}

// awaitTimeoutLoss polls a report until it logs a connection lost to an
// i/o timeout, failing at the watchdog.
func awaitTimeoutLoss(t *testing.T, report func() Report) {
	t.Helper()
	deadline := time.Now().Add(deadlineWatchdog)
	for {
		for _, e := range report().Events {
			if e.Kind == EventConnLost && strings.Contains(e.Detail, "i/o timeout") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no connection lost to an i/o timeout within %s; events: %v", deadlineWatchdog, report().Events)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHubReadTimesOutSilentPeer: a peer that hellos and then never
// writes cannot pin the hub's reader. The read expires at IdleTimeout,
// the loss is logged as an i/o timeout, and the hub downs the slot,
// closing the peer's connection.
func TestHubReadTimesOutSilentPeer(t *testing.T) {
	hub, err := NewMuxHub(1, idleConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	silent := rawDial(t, hub.Addr(), 0, 0)
	defer func() { _ = silent.Close() }()
	if err := hub.AwaitNodes(time.Second); err != nil {
		t.Fatal(err)
	}
	awaitTimeoutLoss(t, hub.Report)
	if !closedByHub(t, silent) {
		t.Error("the hub kept the silent peer's connection after its read timed out")
	}
}

// silentHub listens like a hub, reads each connection's hello and then
// never writes. It reports the resume field of every hello it reads.
func silentHub(t *testing.T) (addr string, resumes <-chan int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		closed bool
		conns  []net.Conn
	)
	done := make(chan struct{})
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		closed = true
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		<-done
	})
	// Tests read the first two hellos; later redials are dropped.
	out := make(chan int, 2)
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if closed {
				mu.Unlock()
				_ = conn.Close()
				return
			}
			conns = append(conns, conn)
			mu.Unlock()
			hello, err := readFrame(conn, time.Now().Add(time.Second))
			if err != nil {
				continue
			}
			if _, resume, _, err := wire.DecodeHello(hello); err == nil {
				select {
				case out <- resume:
				default:
				}
			}
		}
	}()
	return ln.Addr().String(), out
}

// TestNodeReadTimesOutSilentHub: a hub that accepts a node's hello and
// then never writes cannot pin the node's reader. The read expires at
// IdleTimeout, the loss is logged as an i/o timeout, and the node
// redials with a resume hello.
func TestNodeReadTimesOutSilentHub(t *testing.T) {
	addr, resumes := silentHub(t)
	nd, err := NewMuxNode(addr, 0, idleConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nd.Close() })
	watchdog := time.After(deadlineWatchdog)
	for _, want := range []int{0, 1} {
		select {
		case got := <-resumes:
			if got != want {
				t.Fatalf("hello resume = %d, want %d", got, want)
			}
		case <-watchdog:
			t.Fatalf("no hello with resume %d within %s; node events: %v", want, deadlineWatchdog, nd.Report().Events)
		}
	}
	awaitTimeoutLoss(t, nd.Report)
}

// TestWriteFrameTimesOutOnStalledPeer: writeFrame to a peer that never
// reads returns os.ErrDeadlineExceeded once the socket buffers fill, at
// its deadline rather than whenever the peer resumes reading.
func TestWriteFrameTimesOutOnStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = peer.Close() }()
	// Clamp both ends' socket buffers so the frame outsizes them however
	// the kernel tunes loopback TCP.
	if err := conn.(*net.TCPConn).SetWriteBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	if err := peer.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}

	const wait, slack = 200 * time.Millisecond, 500 * time.Millisecond
	body := make([]byte, 4<<20)
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- writeFrame(conn, body, start.Add(wait)) }()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("writeFrame to a stalled peer = %v, want os.ErrDeadlineExceeded", err)
		}
		if elapsed := time.Since(start); elapsed > wait+slack {
			t.Errorf("writeFrame returned %s after start, want within %s of its %s deadline", elapsed, slack, wait)
		}
	case <-time.After(deadlineWatchdog):
		t.Fatalf("writeFrame still blocked %s into a %s deadline", deadlineWatchdog, wait)
	}
}

// armCountingConn counts the read deadlines armed on a connection.
type armCountingConn struct {
	net.Conn
	arms int
}

func (c *armCountingConn) SetReadDeadline(t time.Time) error {
	c.arms++
	return c.Conn.SetReadDeadline(t)
}

// TestReadTimesOutOnHalfFrame: readFrameInto skips the read deadline
// only for a frame the connection buffer already holds whole. A peer
// sends two frames and the length prefix and half the body of a third
// in one write, then stalls: the first read arms, the second is served
// from the buffer without arming, and the third — whose header is
// buffered but not its body — arms its own short deadline and times out
// at it, although the deadline the first read armed lies a minute
// ahead.
func TestReadTimesOutOnHalfFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = peer.Close() }()
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = accepted.Close() }()
	conn := &armCountingConn{Conn: accepted}

	whole := framed([]byte("a whole frame"))
	half := framed(bytes.Repeat([]byte{0x5a}, 64))
	if _, err := peer.Write(append(append(append([]byte(nil), whole...), whole...), half[:frameHeader+32]...)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the whole segment land in the socket buffer
	br := newConnReader(conn)
	var buf []byte
	for i := 0; i < 2; i++ {
		if buf, err = readFrameInto(conn, br, time.Now().Add(time.Minute), buf); err != nil || !bytes.Equal(buf, whole[frameHeader:]) {
			t.Fatalf("frame %d: %q, %v; want the whole frame", i, buf, err)
		}
	}
	if conn.arms != 1 {
		t.Errorf("two frames read out of one segment armed %d read deadlines, want 1", conn.arms)
	}

	const wait, slack = 200 * time.Millisecond, 500 * time.Millisecond
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := readFrameInto(conn, br, start.Add(wait), buf)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("reading the half frame = %v, want os.ErrDeadlineExceeded", err)
		}
		if elapsed := time.Since(start); elapsed > wait+slack {
			t.Errorf("the half-frame read returned %s after start, want within %s of its %s deadline", elapsed, slack, wait)
		}
	case <-time.After(deadlineWatchdog):
		t.Fatalf("the half-frame read still blocked %s into a %s deadline", deadlineWatchdog, wait)
	}
}
