// Goroutine and connection lifetime tests: a worker keeps its party
// goroutines from one instance to the next and a connection answers
// from one writer, so neither an instance nor a request starts a
// goroutine; a client that never reads its answers holds up no worker
// and no other connection; and a closed service or connection leaves
// nothing behind.

package service

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"proxcensus/internal/transport"
)

// holdFaults injects no fault, but while armed it holds node 0 before
// its round-2 send of the next instance to get there: it signals held
// and waits for release. The instance stands mid-round meanwhile.
type holdFaults struct {
	transport.NoFaults
	armed   atomic.Bool
	held    chan struct{}
	release chan struct{}
}

func (f *holdFaults) Delay(id, round int) time.Duration {
	if id == 0 && round == 2 && f.armed.CompareAndSwap(true, false) {
		f.held <- struct{}{}
		<-f.release
	}
	return 0
}

// settledGoroutines returns the goroutine count once it has read the
// same five times in a row, 10 ms apart: goroutines that have finished
// their work are given time to exit.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	last, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(10 * time.Second); same < 5; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count never settled (last %d)", last)
		}
		time.Sleep(10 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == last {
			same++
		} else {
			last, same = n, 0
		}
	}
	return last
}

// awaitGoroutinesAtMost polls until at most want goroutines exist.
func awaitGoroutinesAtMost(t *testing.T, want int, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines remain, want at most %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitResult waits for one API result and checks that it decided.
func awaitResult(t *testing.T, ch <-chan Result, within time.Duration, what string) Result {
	t.Helper()
	select {
	case res := <-ch:
		if !res.Decided || !res.Committed {
			t.Fatalf("%s: %+v", what, res)
		}
		return res
	case <-time.After(within):
		t.Fatalf("%s: no decision within %s", what, within)
		return Result{}
	}
}

// TestNoGoroutinePerInstanceOrRequest: on a warm worker, an instance
// held mid-round with API requests and a ticket in flight runs on
// exactly the goroutines the idle service had — the worker, its party
// goroutines and the connection's reader and writer — and after Close
// the count is back where it was before New.
func TestNoGoroutinePerInstanceOrRequest(t *testing.T) {
	baseline := settledGoroutines(t)
	faults := &holdFaults{held: make(chan struct{}), release: make(chan struct{})}
	s, err := New(Config{
		N: 4, T: 1, Kappa: 1, Seed: 7,
		MaxActive: 1, Batch: 1,
		RoundTimeout: 2 * time.Second,
		Faults:       faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	apiDone := make(chan error, 1)
	go func() { apiDone <- s.ServeAPI(ln) }()
	c, err := DialClient(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	// The worker's first instance starts its party goroutines.
	ch, err := c.Propose(1)
	if err != nil {
		t.Fatal(err)
	}
	awaitResult(t, ch, 30*time.Second, "warm-up proposal")
	idle := settledGoroutines(t)

	// Three requests and a ticket: the first request's instance is held
	// in round 2, the rest wait in the pending queue.
	faults.armed.Store(true)
	var chans []<-chan Result
	for i := 0; i < 3; i++ {
		ch, err := c.Propose(10 + i)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	tk, err := s.Submit(20)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-faults.held:
	case <-time.After(30 * time.Second):
		t.Fatal("the armed instance never reached its round-2 send")
	}
	mid := runtime.NumGoroutine()
	close(faults.release)
	for i, ch := range chans {
		awaitResult(t, ch, 30*time.Second, fmt.Sprintf("request %d", i))
	}
	if d := tk.Wait(); !d.Committed {
		t.Fatalf("ticket: %+v", d)
	}
	if mid != idle {
		t.Errorf("mid-round with 3 requests and a ticket in flight: %d goroutines; idle warm service: %d", mid, idle)
	}

	_ = c.Close()
	_ = ln.Close()
	if err := <-apiDone; err != nil {
		t.Fatalf("ServeAPI: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	awaitGoroutinesAtMost(t, baseline, "after Close")
}

// TestSlowClientIsolatesItself: a client pipelines payload proposals
// whose decidedb answers overfill the loopback socket buffers, and never
// reads. Its proposals still all decide, the one worker carries on, and
// another connection's proposals decide as promptly as ever. Once the
// slow client closes, its connection's goroutines exit and the
// connection, answer queue included, is garbage.
func TestSlowClientIsolatesItself(t *testing.T) {
	const slowTotal, payloadSize = 64, 8 << 10 // 1 MiB of answers
	s := quickService(t, func(c *Config) {
		c.MaxActive, c.Batch, c.MaxPending = 1, 4, 2*slowTotal
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() { _ = s.ServeAPI(ln) }()
	good, err := DialClient(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = good.Close() })
	ch, err := good.Propose(1)
	if err != nil {
		t.Fatal(err)
	}
	awaitResult(t, ch, 30*time.Second, "warm-up proposal")
	baseline := settledGoroutines(t)

	// The slow connection is accepted here rather than by ServeAPI, so
	// its server-side send buffer can be made small and its apiConn
	// watched.
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sln.Close() }()
	slow, err := net.Dial("tcp", sln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = slow.Close() }) // runs before quickService's Close
	conn, err := sln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
	var freed atomic.Bool
	served := make(chan struct{})
	func() {
		c := newAPIConn(conn)
		runtime.SetFinalizer(c, func(*apiConn) { freed.Store(true) })
		go func() {
			s.serveConn(c)
			close(served)
		}()
	}()

	payload := bytes.Repeat([]byte{0x5a}, payloadSize)
	var requests []byte
	for i := 0; i < slowTotal; i++ {
		requests = fmt.Appendf(requests, "proposeb s%d %x\n", i, payload)
	}
	if _, err := slow.Write(requests); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); s.Stats().Decided < 1+slowTotal; {
		if time.Now().After(deadline) {
			t.Fatalf("the slow client's proposals stalled the worker: %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	for i := 0; i < 8; i++ {
		ch, err := good.Propose(100 + i)
		if err != nil {
			t.Fatal(err)
		}
		awaitResult(t, ch, 5*time.Second, fmt.Sprintf("good client's proposal %d", i))
	}

	_ = slow.Close()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("the slow connection was not let go after its client closed")
	}
	awaitGoroutinesAtMost(t, baseline, "after the slow client closed")
	for deadline := time.Now().Add(10 * time.Second); !freed.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("the slow connection's apiConn is still reachable after it closed")
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if st := s.Stats(); st.Decided != 1+slowTotal+8 || st.Failed != 0 {
		t.Fatalf("stats %+v, want %d decided", st, 1+slowTotal+8)
	}
}
