package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// The tests in this file pin the outbox: frames queued on one
// connection while a writer is busy share its next write, every frame
// arrives whole and each sender's in order, a failed flush answers each
// of its frames with the failure, and a hub delivery whose write failed
// still follows the connection rules (DESIGN §8).

// gatedConn is an in-memory net.Conn that appends everything written
// to one byte stream. A flush arms one write deadline, so flushes count
// the writes the outbox makes: on a TCP connection each is one
// conn.Write or one writev, while net.Buffers falls back to one Write
// per frame on a connection like this one. The first Write blocks until
// gate is closed, and the Write numbered failAt (from 1) and every
// later one fail with errBroken; 0 never fails.
type gatedConn struct {
	net.Conn
	gate    chan struct{}
	entered chan struct{}
	failAt  int

	mu      sync.Mutex
	writes  int
	flushes int
	stream  []byte
}

var errBroken = errors.New("connection broke mid-flush")

func newGatedConn(failAt int) *gatedConn {
	return &gatedConn{gate: make(chan struct{}), entered: make(chan struct{}), failAt: failAt}
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	first, fail := c.writes == 1, c.failAt > 0 && c.writes >= c.failAt
	c.mu.Unlock()
	if first {
		close(c.entered)
		<-c.gate
	}
	if fail {
		return 0, errBroken
	}
	c.mu.Lock()
	c.stream = append(c.stream, p...)
	c.mu.Unlock()
	return len(p), nil
}

func (c *gatedConn) SetWriteDeadline(time.Time) error {
	c.mu.Lock()
	c.flushes++
	c.mu.Unlock()
	return nil
}

func (c *gatedConn) Close() error { return nil }

// senderFrame seals a frame whose body names its sender and sequence
// number, padded to a length of its own.
func senderFrame(sender, seq int) []byte {
	body := make([]byte, 2+(sender*7+seq)%13)
	body[0], body[1] = byte(sender), byte(seq)
	return sealFrame(append(beginFrame(nil), body...))
}

// queuedBehind waits until n frames sit in o's queue.
func queuedBehind(t *testing.T, o *outbox, n int) {
	t.Helper()
	deadline := time.Now().Add(laneWait)
	for {
		o.qmu.Lock()
		queued := len(o.queue)
		o.qmu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d frames queued, want %d", queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOutboxCoalescesConcurrentFrames: k senders send m frames each on
// one outbox. The first flush is held up, so the other senders' first
// frames queue behind it and go out together in the next one: there are
// fewer flushes than frames, every frame arrives whole, and each
// sender's frames arrive in the order it sent them. A flush that wrote
// only the first frame it took fails this (scripts/lint_mutation.sh,
// mutation 20).
func TestOutboxCoalescesConcurrentFrames(t *testing.T) {
	const k, m = 6, 20
	conn := newGatedConn(0)
	o := &outbox{conn: conn}
	var wg sync.WaitGroup
	errs := make(chan error, k*m)
	send := func(sender int) {
		defer wg.Done()
		f := &outFrame{reply: make(chan *outFrame, 1)}
		for seq := 0; seq < m; seq++ {
			f.frame, f.deadline = senderFrame(sender, seq), time.Now().Add(time.Minute)
			if got, err := o.send(f); err != nil || got != conn {
				errs <- err
			}
		}
	}
	wg.Add(1)
	go send(0)
	<-conn.entered // sender 0 is writing its first frame
	for s := 1; s < k; s++ {
		wg.Add(1)
		go send(s)
	}
	queuedBehind(t, o, k-1)
	close(conn.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("a send failed or named another connection: %v", err)
	}

	next := make([]int, k)
	stream, frames := conn.stream, 0
	for len(stream) > 0 {
		if len(stream) < frameHeader {
			t.Fatalf("a %d-byte tail after %d frames", len(stream), frames)
		}
		size := int(binary.BigEndian.Uint32(stream))
		if len(stream) < frameHeader+size {
			t.Fatalf("frame %d claims %d bytes, %d follow", frames, size, len(stream)-frameHeader)
		}
		body := stream[frameHeader : frameHeader+size]
		sender, seq := int(body[0]), int(body[1])
		if sender >= k || seq != next[sender] || size != 2+(sender*7+seq)%13 {
			t.Fatalf("frame %d: sender %d frame %d (%d bytes), want that sender's frame %d", frames, sender, seq, size, next[sender])
		}
		next[sender]++
		stream = stream[frameHeader+size:]
		frames++
	}
	if frames != k*m {
		t.Fatalf("%d frames arrived, want %d", frames, k*m)
	}
	if conn.flushes > frames-(k-2) {
		t.Errorf("%d frames went out in %d flushes; want the %d queued behind the first to share one", frames, conn.flushes, k-1)
	}
	o.qmu.Lock()
	defer o.qmu.Unlock()
	if o.writing || len(o.queue) != 0 {
		t.Errorf("outbox left writing=%t with %d queued", o.writing, len(o.queue))
	}
}

// TestOutboxFailedFlushAnswersEveryFrame: a connection that breaks in
// the middle of a flush — after the flush's first frame went out —
// answers every frame of that flush with the error and the connection,
// so each sender can redial or down the connection it failed on; the
// flush before it succeeded.
func TestOutboxFailedFlushAnswersEveryFrame(t *testing.T) {
	const k = 5
	conn := newGatedConn(3) // the first flush is Write 1; the second fails at its second frame
	o := &outbox{conn: conn}
	errs := make([]error, k)
	conns := make([]net.Conn, k)
	var wg sync.WaitGroup
	send := func(sender int) {
		defer wg.Done()
		f := &outFrame{frame: senderFrame(sender, 0), deadline: time.Now().Add(time.Minute), reply: make(chan *outFrame, 1)}
		conns[sender], errs[sender] = o.send(f)
	}
	wg.Add(1)
	go send(0)
	<-conn.entered
	for s := 1; s < k; s++ {
		wg.Add(1)
		go send(s)
	}
	queuedBehind(t, o, k-1)
	close(conn.gate)
	wg.Wait()
	if errs[0] != nil {
		t.Errorf("sender 0's lone flush failed: %v", errs[0])
	}
	for s := 1; s < k; s++ {
		if !errors.Is(errs[s], errBroken) || conns[s] != conn {
			t.Errorf("sender %d: answered (%v, %v), want the broken flush's error and its connection", s, errs[s], conns[s])
		}
	}
	if conn.flushes != 2 {
		t.Errorf("%d flushes, want 2", conn.flushes)
	}
}

// deliveryHub is a hub with n in-memory connections, none of them
// accepting, for driving HubInstance.deliver by hand.
func deliveryHub(n int, conns ...net.Conn) (*MuxHub, *HubInstance) {
	h := &MuxHub{
		n:       n,
		cfg:     quickConfig().withDefaults(),
		log:     newEventLog(n),
		conns:   make([]*muxConn, n),
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	for id, c := range conns {
		h.conns[id] = &muxConn{outbox: outbox{conn: c}, down: make(chan struct{})}
	}
	hi := &HubInstance{h: h, id: 3, dead: make([]bool, n), log: newEventLog(n), roundScratch: newRoundScratch(n)}
	return h, hi
}

// TestHubDeliveryAfterFailedFlush: a delivery whose flush fails downs
// the connection and waits out a replacement: one admitted before the
// fresh delivery deadline carries the frame, and without one the
// recipient dies for the instance at that deadline. The other
// recipient's delivery is untouched either way.
func TestHubDeliveryAfterFailedFlush(t *testing.T) {
	const wait = 300 * time.Millisecond
	for _, replaced := range []bool{true, false} {
		name := "no replacement"
		if replaced {
			name = "replacement"
		}
		t.Run(name, func(t *testing.T) {
			broken, healthy := newGatedConn(1), newGatedConn(0)
			close(broken.gate)
			close(healthy.gate)
			h, hi := deliveryHub(2, broken, healthy)
			frame := senderFrame(1, 2)
			hi.deliveries[0], hi.deliveries[1] = frame, frame
			replacement := newGatedConn(0)
			close(replacement.gate)
			if replaced {
				go func() {
					h.mu.Lock()
					old := h.conns[0]
					h.mu.Unlock()
					<-old.down // the hub downed the broken connection
					h.mu.Lock()
					h.conns[0] = &muxConn{outbox: outbox{conn: replacement}, down: make(chan struct{})}
					h.connsChanged()
					h.mu.Unlock()
				}()
			}
			start := time.Now()
			hi.deliver(2, start.Add(wait))
			elapsed := time.Since(start)
			if string(healthy.stream) != string(frame) {
				t.Errorf("the healthy recipient got %d bytes, want its %d-byte delivery", len(healthy.stream), len(frame))
			}
			lost := false
			for _, e := range h.log.snapshot().Events {
				lost = lost || e.Kind == EventConnLost && e.Node == 0 && strings.Contains(e.Detail, errBroken.Error())
			}
			if !lost {
				t.Errorf("the broken flush was not logged as a lost connection: %v", h.log.snapshot().Events)
			}
			if replaced {
				if hi.dead[0] || string(replacement.stream) != string(frame) {
					t.Errorf("dead=%t, replacement got %d bytes; want the delivery on the replacement", hi.dead[0], len(replacement.stream))
				}
				return
			}
			if !hi.dead[0] || hi.dead[1] {
				t.Errorf("dead = %v, want only recipient 0", hi.dead)
			}
			if elapsed < wait || elapsed > wait+deadlineWatchdog {
				t.Errorf("recipient 0 died %s after the round began, want at its %s delivery deadline", elapsed, wait)
			}
		})
	}
}
