// Payload lifetime tests: a worker encodes every payload instance into
// its one batch input, which the decided bytes alias until the instance
// returns, and an API connection decodes requests into buffers it gets
// back from the workers. So answers must be rendered, and ticket
// payloads copied, before the input is reused, and neither the input
// nor a recycled buffer may keep a proposal's bytes once it is idle;
// an idle connection keeps no payload buffer at all.

package service

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"
)

// distinctPayload returns size bytes that differ from every other i's.
func distinctPayload(i, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i*131 + j*7 + j>>8)
	}
	return b
}

// allZero reports whether b holds only zero bytes up to its capacity.
func allZero(b []byte) bool {
	for _, x := range b[:cap(b)] {
		if x != 0 {
			return false
		}
	}
	return true
}

// unreadAnswers serves one connection whose server-side send buffer is
// small: its client pipelines total distinct payload proposals of
// payloadSize bytes and reads nothing until one worker has decided them
// all, so the answers pile up behind a full socket across many
// instances on the same batch input. It returns the server side of the
// connection and a scanner over the client's answers.
func unreadAnswers(t *testing.T, total, payloadSize int) (*apiConn, *bufio.Scanner) {
	t.Helper()
	s := quickService(t, func(c *Config) {
		c.MaxActive, c.Batch, c.MaxPending = 1, 4, 2*total
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() }) // runs before quickService's Close
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
	c := newAPIConn(conn)
	go s.serveConn(c)

	var requests []byte
	for i := 0; i < total; i++ {
		requests = fmt.Appendf(requests, "proposeb p%d %x\n", i, distinctPayload(i, payloadSize))
	}
	if _, err := client.Write(requests); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); s.Stats().Decided < int64(total); {
		if time.Now().After(deadline) {
			t.Fatalf("proposals never decided: %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	_ = client.SetReadDeadline(time.Now().Add(30 * time.Second))
	sc := bufio.NewScanner(client)
	sc.Buffer(make([]byte, 0, 256), apiMaxLine)
	return c, sc
}

// TestAPIAnswersOutliveTheBatchInput: once a client that read nothing
// while one worker decided its pipelined payload proposals reads, every
// decidedb answer echoes its own proposal byte for byte: each was
// rendered when its instance decided, not from the reused input later.
func TestAPIAnswersOutliveTheBatchInput(t *testing.T) {
	const total, payloadSize = 64, 4 << 10 // 512 KiB of answers
	_, sc := unreadAnswers(t, total, payloadSize)
	seen := make(map[string]bool)
	for len(seen) < total && sc.Scan() {
		res, ok := parseResult(sc.Bytes())
		if !ok || !res.Decided || !res.Committed {
			t.Fatalf("answer %.80q parsed to %+v", sc.Text(), res)
		}
		var i int
		if _, err := fmt.Sscanf(res.ReqID, "p%d", &i); err != nil || seen[res.ReqID] {
			t.Fatalf("unexpected answer to %q", res.ReqID)
		}
		seen[res.ReqID] = true
		if want := distinctPayload(i, payloadSize); !bytes.Equal(res.Payload, want) {
			t.Errorf("answer to %s echoes %d bytes that are not its proposal (first %x, want %x)",
				res.ReqID, len(res.Payload), res.Payload[:min(8, len(res.Payload))], want[:8])
		}
	}
	if len(seen) < total {
		t.Fatalf("read %d of %d answers: %v", len(seen), total, sc.Err())
	}
}

// TestIdleConnectionKeepsLittle: a burst of answers that piled up
// behind a client that did not read grows the connection's answer
// buffers far past apiMaxLine, and its payload buffers circulate on
// the free list. Once every answer is read and the connection is idle
// it keeps no payload buffer and at most apiMaxLine bytes of answer
// buffers, all zero.
func TestIdleConnectionKeepsLittle(t *testing.T) {
	const total, payloadSize = 64, 4 << 10
	c, sc := unreadAnswers(t, total, payloadSize)
	for i := 0; i < total; i++ {
		if !sc.Scan() {
			t.Fatalf("read %d of %d answers: %v", i, total, sc.Err())
		}
	}
	kept := func() (free, freeBytes, queue, spent int, zero bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.free), c.freeBytes, cap(c.queue), cap(c.spent), allZero(c.queue) && allZero(c.spent)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		free, freeBytes, queue, spent, zero := kept()
		if free == 0 && freeBytes == 0 && queue+spent <= apiMaxLine && zero {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle connection keeps %d free buffers (%d bytes) and %d+%d bytes of answer buffers (zero %v)",
				free, freeBytes, queue, spent, zero)
		}
	}
}

// TestConnBufferFitsTheLastPayload: the reader asks the free list for a
// buffer as large as the connection's last payload. A buffer too small
// for it is dropped on the way rather than handed out and passed over
// again, and a connection that has sent no payload asks for nothing.
func TestConnBufferFitsTheLastPayload(t *testing.T) {
	c := newAPIConn(nil)
	c.inFlight = 1
	large, small := make([]byte, 4<<10), make([]byte, 1<<10)
	c.recycle(large)
	c.recycle(small)
	if b := c.buffer(0); b != nil {
		t.Fatalf("buffer(0) handed out %d bytes", cap(b))
	}
	if b := c.buffer(4 << 10); cap(b) != 4<<10 || len(b) != 0 || &b[:1][0] != &large[0] {
		t.Fatalf("buffer(4 KiB) handed out len %d cap %d, want the recycled 4 KiB buffer", len(b), cap(b))
	}
	if len(c.free) != 0 || c.freeBytes != 0 {
		t.Fatalf("free list keeps %d buffers (%d bytes), want the 1 KiB one dropped", len(c.free), c.freeBytes)
	}
	if b := c.buffer(1); b != nil {
		t.Fatalf("empty free list handed out %d bytes", cap(b))
	}
}

// TestTicketPayloadOutlivesTheBatchInput: a SubmitPayload decision's
// payload is the caller's own copy, intact after later instances have
// reused the worker's batch input.
func TestTicketPayloadOutlivesTheBatchInput(t *testing.T) {
	s := quickService(t, func(c *Config) {
		c.MaxActive, c.Batch = 1, 1
	})
	const payloadSize = 1 << 10
	var decided []Decision
	for i := 0; i < 4; i++ {
		tk, err := s.SubmitPayload(distinctPayload(i, payloadSize))
		if err != nil {
			t.Fatal(err)
		}
		d := tk.Wait()
		if !d.Committed {
			t.Fatalf("proposal %d did not commit: %v", i, d.Err)
		}
		decided = append(decided, d)
	}
	for i, d := range decided {
		if !bytes.Equal(d.Payload, distinctPayload(i, payloadSize)) {
			t.Errorf("decision %d's payload changed after later instances on its worker", i)
		}
	}
}

// TestIdleWorkerAndConnectionPinNoPayload: after a payload instance
// whose batch mixes API proposals and a ticket, the worker's batch
// input and answer scratch are zero bytes, and every API proposal's
// payload buffer is back on its connection's free list, zeroed, while
// another proposal of the connection is in flight — and the queued
// answers and the ticket's decision still carry the decided bytes.
// Once that last proposal is answered the list is dropped.
func TestIdleWorkerAndConnectionPinNoPayload(t *testing.T) {
	s := quickService(t, func(c *Config) { c.MaxActive = 1 })
	server, client := net.Pipe()
	defer func() { _ = client.Close() }()
	defer func() { _ = server.Close() }()
	c := newAPIConn(server)
	w := s.newWorkerState()
	defer w.stop()

	var batch []proposal
	var sent [][]byte
	for i, size := range []int{700, 1 << 10, 300} {
		payload := distinctPayload(i, size)
		sent = append(sent, bytes.Clone(payload))
		c.inFlight++
		batch = append(batch, proposal{payload: payload, isPayload: true, enqueued: time.Now(),
			conn: c, reqid: fmt.Sprint(i)})
	}
	buffers := make([][]byte, len(batch))
	for i := range batch {
		buffers[i] = batch[i].payload
	}
	c.inFlight++ // a proposal of the connection in another instance
	tk := &Ticket{done: make(chan Decision, 1)}
	ticketPayload := distinctPayload(9, 500)
	batch = append(batch, proposal{payload: bytes.Clone(ticketPayload), isPayload: true, enqueued: time.Now(), tk: tk})
	s.runInstance(w, batch)

	if cap(w.input) == 0 || !allZero(w.input) {
		t.Errorf("the worker's batch input (capacity %d) is not zero bytes after the instance", cap(w.input))
	}
	if !allZero(w.line) {
		t.Error("the worker's answer scratch is not zero bytes after the instance")
	}
	if len(c.free) != len(buffers) {
		t.Fatalf("%d buffers on the connection's free list, want %d", len(c.free), len(buffers))
	}
	for i, b := range c.free {
		if !allZero(b) {
			t.Errorf("free buffer %d holds proposal bytes", i)
		}
	}
	for i, b := range buffers {
		if !allZero(b) {
			t.Errorf("proposal %d's payload buffer was not zeroed", i)
		}
	}
	if d := <-tk.Done(); !d.Committed || !bytes.Equal(d.Payload, ticketPayload) {
		t.Errorf("ticket decision (committed %v, error %v) lost its payload", d.Committed, d.Err)
	}
	lines := bytes.Split(bytes.TrimSuffix(c.queue, []byte("\n")), []byte("\n"))
	if len(lines) != len(sent) {
		t.Fatalf("%d answers queued, want %d", len(lines), len(sent))
	}
	for i, line := range lines {
		res, ok := parseResult(line)
		if !ok || !res.Committed || res.ReqID != fmt.Sprint(i) || !bytes.Equal(res.Payload, sent[i]) {
			t.Errorf("queued answer %d parsed to %+v", i, res)
		}
	}
	c.answer(nil, "other", false, Decision{Committed: true})
	if len(c.free) != 0 || c.freeBytes != 0 {
		t.Errorf("idle connection keeps %d free buffers (%d bytes)", len(c.free), c.freeBytes)
	}
}
