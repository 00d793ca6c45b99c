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
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"proxcensus/internal/ba"
)

// apiWriteTimeout bounds one response write to a client connection.
const apiWriteTimeout = 30 * time.Second

// apiMaxLine bounds one request line.
const apiMaxLine = 1 << 16

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
		go s.serveConn(conn)
	}
}

// serveConn drains one client connection: each request line submits a
// proposal, shed verdicts answer immediately, and accepted proposals
// answer from a per-proposal goroutine when the decision lands, so a
// slow instance never blocks the request stream.
func (s *Service) serveConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	var wmu sync.Mutex
	// reply writes one response line, newline included, in one Write.
	reply := func(line []byte) {
		wmu.Lock()
		defer wmu.Unlock()
		_ = conn.SetWriteDeadline(time.Now().Add(apiWriteTimeout))
		_, _ = conn.Write(line)
	}
	var wg sync.WaitGroup
	defer wg.Wait()

	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 256), apiMaxLine)
	for sc.Scan() {
		req, refusal := parseRequest(sc.Text())
		if refusal != "" {
			reply([]byte(refusal + "\n"))
			continue
		}
		if req.reqid == "" {
			continue // blank line
		}
		var tk *Ticket
		var err error
		if req.isPayload {
			// The payload was hex-decoded into a slice of its own, so
			// the service keeps it without a copy.
			tk, err = s.submitPayload(req.payload, true)
		} else {
			tk, err = s.Submit(req.value)
		}
		switch {
		case errors.Is(err, ErrOverloaded):
			reply(fmt.Appendf(nil, "busy %s %d\n", req.reqid, s.cfg.RetryAfter.Milliseconds()))
		case err != nil:
			reply(fmt.Appendf(nil, "err %s %v\n", req.reqid, err))
		default:
			wg.Add(1)
			go func(reqid string, isPayload bool) {
				defer wg.Done()
				reply(answerLine(reqid, isPayload, tk.Wait()))
			}(req.reqid, req.isPayload) // not req: its payload is not held until the decision
		}
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

// parseRequest splits one request line. A line that carries no
// proposal comes back with the `err` line that refuses it; a blank
// line earns no answer and comes back as the zero request.
func parseRequest(line string) (req request, refusal string) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return request{}, ""
	}
	if len(fields) != 3 || (fields[0] != "propose" && fields[0] != "proposeb") {
		return request{}, "err - malformed request, want: propose <reqid> <value> | proposeb <reqid> <payload-hex>"
	}
	req = request{reqid: fields[1], isPayload: fields[0] == "proposeb"}
	if req.isPayload {
		payload, err := hex.DecodeString(fields[2])
		if err != nil {
			return request{}, fmt.Sprintf("err %s payload is not hex: %v", req.reqid, err)
		}
		req.payload = payload
		return req, ""
	}
	value, err := strconv.Atoi(fields[2])
	if err != nil {
		return request{}, fmt.Sprintf("err %s value %q is not an integer", req.reqid, fields[2])
	}
	req.value = ba.Value(value)
	return req, ""
}

// answerLine renders the answer to a decided request, newline
// included: `decidedb` for a payload proposal, `decided` for a value.
// It allocates the line once, at its full size, so a payload answer's
// hex is written straight into the buffer the connection is written
// from.
func answerLine(reqid string, isPayload bool, d Decision) []byte {
	committed := int64(0)
	if d.Committed {
		committed = 1
	}
	// Room for the verb, the request ID, four numbers of up to 20
	// characters with their separators, the payload hex and the newline.
	b := make([]byte, 0, len("decidedb ")+len(reqid)+4*21+hex.EncodedLen(len(d.Payload))+1)
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
	wmu  sync.Mutex

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
	c := &Client{conn: conn, waiters: make(map[string]chan Result)}
	go c.reader()
	return c, nil
}

// Close drops the connection; outstanding proposals resolve with a
// connection-lost Result.
func (c *Client) Close() error { return c.conn.Close() }

// Propose pipelines one proposal and returns the channel its Result
// arrives on (exactly one).
func (c *Client) Propose(value int) (<-chan Result, error) {
	// An int renders in at most 20 characters.
	return c.send("propose", 20, func(b []byte) []byte { return strconv.AppendInt(b, int64(value), 10) })
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
	return c.send("proposeb", hex.EncodedLen(len(data)), func(b []byte) []byte { return hex.AppendEncode(b, data) })
}

// send registers a waiter under the next request ID and writes the
// request line `<verb> <reqid> <arg>` in one Write, appending it into
// one buffer sized for argLen bytes of arg, which appendArg renders;
// the waiter is dropped again if the write fails.
func (c *Client) send(verb string, argLen int, appendArg func([]byte) []byte) (<-chan Result, error) {
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

	line := make([]byte, 0, len(verb)+len(reqid)+argLen+3)
	line = append(append(append(append(line, verb...), ' '), reqid...), ' ')
	line = append(appendArg(line), '\n')
	c.wmu.Lock()
	_ = c.conn.SetWriteDeadline(time.Now().Add(apiWriteTimeout))
	_, err := c.conn.Write(line)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.waiters, reqid)
		c.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// reader dispatches response lines to their waiters; on connection
// loss every outstanding waiter resolves with the failure.
func (c *Client) reader() {
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 256), apiMaxLine)
	for sc.Scan() {
		res, ok := parseResult(sc.Text())
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

// parseResult parses one response line.
func parseResult(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false
	}
	res := Result{ReqID: fields[1]}
	switch fields[0] {
	case "decided":
		if len(fields) != 6 {
			return Result{}, false
		}
		inst, err1 := strconv.Atoi(fields[2])
		digest, err2 := strconv.Atoi(fields[3])
		committed, err3 := strconv.Atoi(fields[4])
		latUS, err4 := strconv.ParseInt(fields[5], 10, 64)
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
		if len(fields) != 6 {
			return Result{}, false
		}
		inst, err1 := strconv.Atoi(fields[2])
		committed, err2 := strconv.Atoi(fields[3])
		latUS, err3 := strconv.ParseInt(fields[4], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return Result{}, false
		}
		if fields[5] != "-" {
			payload, err := hex.DecodeString(fields[5])
			if err != nil {
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
		if len(fields) != 3 {
			return Result{}, false
		}
		ms, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return Result{}, false
		}
		res.Busy = true
		res.RetryAfter = time.Duration(ms) * time.Millisecond
		return res, true
	case "err":
		res.Err = strings.Join(fields[2:], " ")
		return res, true
	default:
		return Result{}, false
	}
}
