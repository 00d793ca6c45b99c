// Client-facing API: a line-oriented text protocol over TCP, built for
// open-loop clients — requests are pipelined and responses arrive out
// of order, matched by request ID, so one connection can keep many
// proposals in flight.
//
//	-> propose <reqid> <value>
//	<- decided <reqid> <instance> <digest> <committed 0|1> <latency-us>
//	-> proposeb <reqid> <payload-hex>
//	<- decidedb <reqid> <instance> <committed 0|1> <latency-us> <payload-hex|->
//	<- busy <reqid> <retry-after-ms>
//	<- err <reqid> <message>
//
// `busy` is the admission-control verdict: the proposal was shed and
// the client should retry after the hinted backoff. `proposeb` carries
// ℓ-bit payload bytes hex-encoded; the `decidedb` answer echoes the
// proposal's segment of the DECIDED batch bytes (`-` when the instance
// failed to commit), so a client can verify the round-trip end to end.

package service

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"proxcensus/internal/ba"
)

// apiWriteTimeout bounds one response write to a client connection.
const apiWriteTimeout = 30 * time.Second

// apiMaxLine bounds one request line.
const apiMaxLine = 1 << 16

// apiFreeBytes bounds the capacity of the zeroed payload buffers one
// connection keeps for its requests to be decoded into. The list never
// holds more buffers than the connection had proposals in flight at
// once: a client pipelining 32 proposals of 4 KiB peaks at 128 KiB and
// takes 97 % of its buffers off the list, while half that bound turns
// away a buffer in about one request of twenty. The bound is twice
// that peak, so pipelines of up to 8 KiB payloads reuse as well.
const apiFreeBytes = 256 << 10

// MaxAPIPayload is the largest payload proposal the line protocol can
// carry: a hex-encoded payload plus verb, reqid and framing must fit
// in one apiMaxLine request line. Config.Validate enforces MaxPayload
// at or below this ceiling.
const MaxAPIPayload = (apiMaxLine - 128) / 2

// ServeAPI accepts client connections until the listener closes. The
// caller owns the listener; closing it stops the accept loop
// immediately, while connections already accepted keep serving until
// their clients disconnect.
func (s *Service) ServeAPI(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveConn(newAPIConn(conn))
	}
}

// lineWriter is the write side of one line-API connection: lines are
// rendered into the connection's one buffer and written with one Write,
// both while holding the write side, so once the buffer has grown to
// the longest write a line costs no allocation of its own. The write
// side is a one-slot channel holding a token while it is taken: blocked
// writers queue on it first come first served, and releasing it hands
// it straight to the one that has waited longest, so no writer can take
// it twice while another waits.
type lineWriter struct {
	held chan struct{}
	buf  []byte
}

func newLineWriter() lineWriter { return lineWriter{held: make(chan struct{}, 1)} }

// take takes the write side.
func (w *lineWriter) take() { w.held <- struct{}{} }

// begin takes the write side and returns its buffer, emptied, for lines
// to be appended to.
func (w *lineWriter) begin() []byte {
	w.take()
	return w.buf[:0]
}

// flush writes lines — begin's buffer with whole lines appended,
// newlines included — to conn in one Write, keeps the buffer for the
// next write and releases the write side.
func (w *lineWriter) flush(conn net.Conn, lines []byte) error {
	w.buf = lines
	return w.write(conn, lines)
}

// write writes whole lines to conn in one Write while holding the write
// side, taken with take or begin, and releases it.
func (w *lineWriter) write(conn net.Conn, lines []byte) error {
	_ = conn.SetWriteDeadline(time.Now().Add(apiWriteTimeout))
	_, err := conn.Write(lines)
	<-w.held
	return err
}

// apiConn is the server side of one line-API connection: what its
// request reader (Service.serveConn), the workers that decide its
// proposals (recycle, answer) and its one answer writer (writeAnswers)
// share. A connection is idle when none of its proposals is in
// flight; an idle connection keeps no payload buffer and at most
// apiMaxLine bytes of answer buffers.
type apiConn struct {
	conn net.Conn
	w    lineWriter

	// wake holds a token while queue may hold answers the writer has
	// not taken; it is closed once the reader is done and the last
	// accepted proposal is answered.
	wake chan struct{}

	mu sync.Mutex
	// inFlight counts the accepted proposals not yet answered; done
	// marks the reader finished.
	inFlight int
	done     bool
	// queue holds the rendered answers, whole lines, the writer has not
	// taken; spent is the writer's buffer, holding what it took last,
	// which it swaps back in for the next answers.
	queue, spent []byte
	// free holds zeroed payload buffers for the reader to decode
	// requests into, freeBytes their capacity in all, at most
	// apiFreeBytes; the list is empty whenever the connection is idle.
	free      [][]byte
	freeBytes int
}

func newAPIConn(conn net.Conn) *apiConn {
	return &apiConn{conn: conn, w: newLineWriter(), wake: make(chan struct{}, 1)}
}

// serveConn drains one client connection's requests: each line submits
// a proposal through the service's one admission path (admit), and a
// shed or malformed one is refused at once with a `busy` or `err` line
// written from this goroutine. An accepted proposal carries the
// connection and its reqid to the worker that decides it, which queues
// the answer (answer) and never touches the socket; the writer
// goroutine writes what is queued. The reader and the writer share the
// write side one bounded write at a time, first come first served, so
// a refusal waits behind at most one answer write. When the client
// stops sending, the connection closes once every accepted proposal
// has been answered and the writer has finished: no goroutine, answer,
// payload buffer or decided payload of it remains. Requests are parsed
// where the scanner holds them, which is valid only until the next
// Scan: the parsed request owns its request ID, and its payload is
// decoded into a buffer off the connection's free list at least as
// large as the connection's last payload, or a fresh one when there is
// none; the worker that encodes it into an instance hands the buffer
// back zeroed. Between requests the reader holds no buffer.
func (s *Service) serveConn(c *apiConn) {
	written := make(chan struct{})
	go c.writeAnswers(written)
	defer func() {
		c.mu.Lock()
		c.done = true
		if c.inFlight == 0 {
			close(c.wake)
		}
		c.mu.Unlock()
		<-written
		_ = c.conn.Close()
	}()

	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 256), apiMaxLine)
	last := 0 // the size of the connection's last payload
	for sc.Scan() {
		buf := c.buffer(last)
		req, refusal := parseRequest(sc.Bytes(), buf)
		if req.isPayload {
			last = len(req.payload)
		}
		if !req.isPayload || len(req.payload) > cap(buf) {
			c.recycle(buf) // not decoded into, so still zero
		}
		if refusal != "" {
			_ = c.w.flush(c.conn, append(append(c.w.begin(), refusal...), '\n'))
			continue
		}
		if req.reqid == "" {
			continue // blank line
		}
		c.mu.Lock()
		c.inFlight++
		c.mu.Unlock()
		// The payload was hex-decoded into a buffer of its own, so the
		// service keeps it without a copy.
		err := s.admit(proposal{value: req.value, payload: req.payload, isPayload: req.isPayload,
			conn: c, reqid: req.reqid}, true)
		if err == nil {
			continue
		}
		c.recycle(req.payload)
		c.mu.Lock()
		c.settle()
		c.mu.Unlock()
		if errors.Is(err, ErrOverloaded) {
			_ = c.w.flush(c.conn, fmt.Appendf(c.w.begin(), "busy %s %d\n", req.reqid, s.cfg.RetryAfter.Milliseconds()))
		} else {
			_ = c.w.flush(c.conn, fmt.Appendf(c.w.begin(), "err %s %v\n", req.reqid, err))
		}
	}
}

// buffer takes a zeroed payload buffer of at least size bytes off the
// free list, or returns nil when there is none. The buffers it finds
// too small on the way are dropped: the next payloads are likely the
// size of the last, so they would only ever be passed over.
func (c *apiConn) buffer(size int) []byte {
	if size == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := len(c.free); k > 0; k-- {
		b := c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
		c.freeBytes -= cap(b)
		if cap(b) >= size {
			return b
		}
	}
	return nil
}

// recycle zeroes a payload buffer the service is done with and puts it
// on the free list, unless the connection is idle or the buffer would
// take the list past apiFreeBytes.
func (c *apiConn) recycle(b []byte) {
	b = b[:cap(b)]
	if len(b) == 0 {
		return
	}
	clear(b)
	c.mu.Lock()
	if c.inFlight > 0 && c.freeBytes+len(b) <= apiFreeBytes {
		c.free = append(c.free, b[:0])
		c.freeBytes += len(b)
	}
	c.mu.Unlock()
}

// settle counts one accepted proposal answered or refused, under c.mu.
// The last one in flight leaves the connection idle, so the free list
// goes; once the reader is done as well, wake closes, which ends the
// writer.
func (c *apiConn) settle() {
	c.inFlight--
	if c.inFlight > 0 {
		return
	}
	clear(c.free)
	c.free, c.freeBytes = c.free[:0], 0
	if c.done {
		close(c.wake)
	}
}

// answer renders a decided proposal's answer into scratch, queues the
// line and wakes the writer; it returns scratch for the next answer. It
// runs on the worker that decided the proposal, before the instance
// returns, while a decided payload — which aliases the worker's batch
// input — is still valid. It renders before it takes the queue's lock
// and only appends under it, so a client that reads slowly, or not at
// all, never holds up a worker.
func (c *apiConn) answer(scratch []byte, reqid string, isPayload bool, d Decision) []byte {
	line := appendAnswer(scratch[:0], reqid, isPayload, d)
	c.mu.Lock()
	c.queue = append(c.queue, line...)
	select {
	case c.wake <- struct{}{}:
	default: // a wake is pending; the writer takes this answer with it
	}
	c.settle()
	c.mu.Unlock()
	return line
}

// writeAnswers is the connection's one answer writer. Each wake it
// swaps the queue for its own emptied buffer and writes what it took,
// cutting the writes at the first line end at or past apiMaxLine, so a
// refusal waits behind at most one bounded write. What it took is
// zeroed once written, so an idle connection holds no decided payload,
// and once the connection is idle the writer lets go of an answer
// buffer that a burst grew past apiMaxLine/2. After a failed write the
// connection is closed, which ends the reader, and later answers are
// dropped. It returns, closing written, when wake closes.
func (c *apiConn) writeAnswers(written chan<- struct{}) {
	defer close(written)
	failed := false
	for range c.wake {
		c.mu.Lock()
		c.spent, c.queue = c.queue, c.spent[:0]
		taken := c.spent
		c.mu.Unlock()
		for rest := taken; len(rest) > 0 && !failed; {
			lines := rest
			if len(rest) > apiMaxLine {
				// Every queued answer ends in a newline.
				lines = rest[:apiMaxLine+bytes.IndexByte(rest[apiMaxLine-1:], '\n')]
			}
			rest = rest[len(lines):]
			c.w.take()
			if err := c.w.write(c.conn, lines); err != nil {
				failed = true
				_ = c.conn.Close()
			}
		}
		clear(taken)
		c.mu.Lock()
		if c.inFlight == 0 && len(c.queue) == 0 {
			if cap(c.queue) > apiMaxLine/2 {
				c.queue = nil
			}
			if cap(c.spent) > apiMaxLine/2 {
				c.spent = nil
			}
		}
		c.mu.Unlock()
	}
}

// request is one parsed request line: the verb's family, the client's
// request ID and the proposed value or payload.
type request struct {
	reqid     string
	isPayload bool
	value     ba.Value
	payload   []byte
}

// asciiSpace marks the ASCII bytes unicode.IsSpace holds to be white
// space.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields appends line's fields to dst, up to cap(dst) of them, and
// reports whether that was all of them. A field is what bytes.Fields
// makes one — a maximal run of bytes that are not Unicode white space,
// an invalid UTF-8 byte counting as a non-space — and each is a
// subslice of line clipped to its length, as there. The caller passes a
// fixed-size array on its stack, so a line is split without allocating.
// ASCII bytes are looked up in a table, which keeps an 8 KiB proposeb
// line's hex cheaper to split than bytes.Fields makes it.
func splitFields(dst [][]byte, line []byte) ([][]byte, bool) {
	start := -1 // where the field being scanned begins, or -1 between fields
	for i := 0; i < len(line); {
		space, size := asciiSpace[line[i]], 1
		if line[i] >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case !space:
			if start < 0 {
				start = i
			}
		case start >= 0:
			if len(dst) == cap(dst) {
				return dst, false
			}
			dst = append(dst, line[start:i:i])
			start = -1
		}
		i += size
	}
	if start >= 0 {
		if len(dst) == cap(dst) {
			return dst, false
		}
		dst = append(dst, line[start:len(line):len(line)])
	}
	return dst, true
}

// parseRequest splits one request line in place. The request it
// returns shares no byte with line, so line may be overwritten as soon
// as it returns: the payload is hex-decoded into buf, the buffer handed
// in, if it has room, or else into a fresh slice of exactly the
// payload's size. A line that carries no proposal comes back with the
// `err` line that refuses it, and leaves buf zeroed; a blank line earns
// no answer and comes back as the zero request.
func parseRequest(line, buf []byte) (req request, refusal string) {
	var split [3][]byte
	fields, all := splitFields(split[:0], line)
	if len(fields) == 0 {
		return request{}, ""
	}
	verb := fields[0]
	if !all || len(fields) != 3 || (string(verb) != "propose" && string(verb) != "proposeb") {
		return request{}, "err - malformed request, want: propose <reqid> <value> | proposeb <reqid> <payload-hex>"
	}
	req = request{reqid: string(fields[1]), isPayload: string(verb) == "proposeb"}
	if f := fields[2]; req.isPayload {
		payload := buf
		if size := hex.DecodedLen(len(f)); cap(payload) >= size {
			payload = payload[:size]
		} else {
			payload = make([]byte, size)
		}
		n, err := hex.Decode(payload, f)
		if err != nil {
			clear(payload)
			return request{}, fmt.Sprintf("err %s payload is not hex: %v", req.reqid, err)
		}
		req.payload = payload[:n]
		return req, ""
	}
	value, err := strconv.Atoi(string(fields[2]))
	if err != nil {
		return request{}, fmt.Sprintf("err %s value %q is not an integer", req.reqid, fields[2])
	}
	req.value = ba.Value(value)
	return req, ""
}

// appendAnswer appends the answer to a decided request to b, newline
// included: `decidedb` for a payload proposal, `decided` for a value. A
// payload answer's hex goes straight into b, the buffer the connection
// is written from.
func appendAnswer(b []byte, reqid string, isPayload bool, d Decision) []byte {
	committed := int64(0)
	if d.Committed {
		committed = 1
	}
	if isPayload {
		b = append(b, "decidedb "...)
	} else {
		b = append(b, "decided "...)
	}
	b = append(append(b, reqid...), ' ')
	b = append(strconv.AppendInt(b, int64(d.Instance), 10), ' ')
	if !isPayload {
		b = append(strconv.AppendInt(b, int64(d.Digest), 10), ' ')
	}
	b = append(strconv.AppendInt(b, committed, 10), ' ')
	b = strconv.AppendInt(b, d.Latency.Microseconds(), 10)
	switch {
	case !isPayload:
	case d.Committed:
		b = hex.AppendEncode(append(b, ' '), d.Payload)
	default:
		b = append(b, " -"...)
	}
	return append(b, '\n')
}

// Result is one parsed API response on the client side.
type Result struct {
	// ReqID matches the proposal.
	ReqID string
	// Decided is true for a `decided` response, false for `busy`/`err`.
	Decided bool
	// Busy is true when admission control shed the proposal.
	Busy bool
	// Instance, Digest, Committed and Latency mirror the Decision for
	// `decided` responses (Latency is the server-side measurement).
	Instance  int
	Digest    int
	Committed bool
	Latency   time.Duration
	// Payload carries the decided segment of a `decidedb` response —
	// the bytes the instance agreed on for this proposal.
	Payload []byte
	// RetryAfter carries the backoff hint of a `busy` response.
	RetryAfter time.Duration
	// Err carries the message of an `err` response, or a transport
	// failure.
	Err string
}

// Client speaks the API protocol for open-loop load generation:
// Propose pipelines without waiting, and a reader goroutine dispatches
// responses to per-request channels.
type Client struct {
	conn net.Conn
	w    lineWriter

	mu      sync.Mutex
	next    int
	waiters map[string]chan Result
	dead    bool
}

// DialClient connects to a service API listener.
func DialClient(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, w: newLineWriter(), waiters: make(map[string]chan Result)}
	go c.reader()
	return c, nil
}

// Close drops the connection; outstanding proposals resolve with a
// connection-lost Result.
func (c *Client) Close() error { return c.conn.Close() }

// Propose pipelines one proposal and returns the channel its Result
// arrives on (exactly one).
func (c *Client) Propose(value int) (<-chan Result, error) {
	return c.send("propose", func(b []byte) []byte { return strconv.AppendInt(b, int64(value), 10) })
}

// ProposePayload pipelines one ℓ-bit payload proposal and returns the
// channel its Result arrives on (exactly one). The Result's Payload is
// the decided segment, which a round-trip check compares to data.
func (c *Client) ProposePayload(data []byte) (<-chan Result, error) {
	if len(data) == 0 {
		return nil, errors.New("service: empty payload")
	}
	if len(data) > MaxAPIPayload {
		return nil, fmt.Errorf("service: payload %d bytes exceeds the line-protocol ceiling %d", len(data), MaxAPIPayload)
	}
	return c.send("proposeb", func(b []byte) []byte { return hex.AppendEncode(b, data) })
}

// send registers a waiter under the next request ID and writes the
// request line `<verb> <reqid> <arg>`, with arg rendered by appendArg,
// from the connection's one line buffer; the waiter is dropped again if
// the write fails.
func (c *Client) send(verb string, appendArg func([]byte) []byte) (<-chan Result, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return nil, errors.New("service: client connection lost")
	}
	c.next++
	reqid := strconv.Itoa(c.next)
	ch := make(chan Result, 1)
	c.waiters[reqid] = ch
	c.mu.Unlock()

	line := append(append(append(append(c.w.begin(), verb...), ' '), reqid...), ' ')
	if err := c.w.flush(c.conn, append(appendArg(line), '\n')); err != nil {
		c.mu.Lock()
		delete(c.waiters, reqid)
		c.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// reader dispatches response lines to their waiters, each parsed where
// the scanner holds it; on connection loss every outstanding waiter
// resolves with the failure.
func (c *Client) reader() {
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 256), apiMaxLine)
	for sc.Scan() {
		res, ok := parseResult(sc.Bytes())
		if !ok {
			continue
		}
		c.mu.Lock()
		ch := c.waiters[res.ReqID]
		delete(c.waiters, res.ReqID)
		c.mu.Unlock()
		if ch != nil {
			ch <- res
		}
	}
	c.mu.Lock()
	c.dead = true
	waiters := c.waiters
	c.waiters = make(map[string]chan Result)
	c.mu.Unlock()
	for id, ch := range waiters {
		ch <- Result{ReqID: id, Err: "connection lost"}
	}
}

// parseResult parses one response line in place; like parseRequest's,
// its Result shares no byte with line. Only an `err` line, whose message
// runs to the end of the line, is split with bytes.Fields.
func parseResult(line []byte) (Result, bool) {
	var split [6][]byte
	fields, all := splitFields(split[:0], line)
	if len(fields) < 2 {
		return Result{}, false
	}
	res := Result{ReqID: string(fields[1])}
	switch string(fields[0]) {
	case "decided":
		if !all || len(fields) != 6 {
			return Result{}, false
		}
		inst, err1 := strconv.Atoi(string(fields[2]))
		digest, err2 := strconv.Atoi(string(fields[3]))
		committed, err3 := strconv.Atoi(string(fields[4]))
		latUS, err4 := strconv.ParseInt(string(fields[5]), 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return Result{}, false
		}
		res.Decided = true
		res.Instance = inst
		res.Digest = digest
		res.Committed = committed == 1
		res.Latency = time.Duration(latUS) * time.Microsecond
		return res, true
	case "decidedb":
		if !all || len(fields) != 6 {
			return Result{}, false
		}
		inst, err1 := strconv.Atoi(string(fields[2]))
		committed, err2 := strconv.Atoi(string(fields[3]))
		latUS, err3 := strconv.ParseInt(string(fields[4]), 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return Result{}, false
		}
		if f := fields[5]; string(f) != "-" {
			payload := make([]byte, hex.DecodedLen(len(f)))
			if _, err := hex.Decode(payload, f); err != nil {
				return Result{}, false
			}
			res.Payload = payload
		}
		res.Decided = true
		res.Instance = inst
		res.Committed = committed == 1
		res.Latency = time.Duration(latUS) * time.Microsecond
		return res, true
	case "busy":
		if !all || len(fields) != 3 {
			return Result{}, false
		}
		ms, err := strconv.ParseInt(string(fields[2]), 10, 64)
		if err != nil {
			return Result{}, false
		}
		res.Busy = true
		res.RetryAfter = time.Duration(ms) * time.Millisecond
		return res, true
	case "err":
		res.Err = string(bytes.Join(bytes.Fields(line)[2:], []byte{' '}))
		return res, true
	default:
		return Result{}, false
	}
}
