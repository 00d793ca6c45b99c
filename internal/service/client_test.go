package service

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestServiceClientAPI: proposals over the TCP API decide end to end,
// responses match by request ID under pipelining, and a saturated
// service answers busy with the retry hint instead of stalling.
func TestServiceClientAPI(t *testing.T) {
	s := quickService(t, func(c *Config) {
		c.Batch = 1
		c.MaxActive = 1
		c.MaxPending = 2
		c.RetryAfter = 25 * time.Millisecond
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	apiDone := make(chan error, 1)
	go func() { apiDone <- s.ServeAPI(ln) }()

	c, err := DialClient(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const total = 20
	chans := make([]<-chan Result, total)
	for i := range chans {
		ch, err := c.Propose(1000 + i)
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		chans[i] = ch
	}
	decided, busy := 0, 0
	for i, ch := range chans {
		select {
		case res := <-ch:
			switch {
			case res.Decided:
				if !res.Committed {
					t.Fatalf("proposal %d decided uncommitted: %+v", i, res)
				}
				decided++
			case res.Busy:
				if res.RetryAfter != 25*time.Millisecond {
					t.Fatalf("busy retry hint = %s, want 25ms", res.RetryAfter)
				}
				busy++
			default:
				t.Fatalf("proposal %d errored: %q", i, res.Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("proposal %d never resolved", i)
		}
	}
	if decided == 0 {
		t.Fatal("nothing decided over the API")
	}
	if decided+busy != total {
		t.Fatalf("decided %d + busy %d != %d", decided, busy, total)
	}

	// Malformed requests answer err without killing the connection.
	mc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mc.Close() }()
	if _, err := mc.Write([]byte("nonsense line\npropose r1 notanint\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	_ = mc.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := mc.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("no err reply to malformed request: n=%d err=%v", n, err)
	}
	if got := string(buf[:n]); got[:3] != "err" {
		t.Fatalf("reply to malformed request = %q, want err", got)
	}

	_ = ln.Close()
	select {
	case err := <-apiDone:
		if err != nil {
			t.Fatalf("ServeAPI: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeAPI did not stop when the listener closed")
	}
}

// TestServiceClientPayloadAPI: kilobyte payload proposals round-trip
// over the TCP line protocol — the decided bytes come back in the
// response and equal the proposal, which is the acceptance check that
// Propose bytes are what gets decided and returned.
func TestServiceClientPayloadAPI(t *testing.T) {
	s := quickService(t, func(c *Config) {
		c.Batch = 2
		c.MaxActive = 2
		c.MaxPending = 8
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() { _ = s.ServeAPI(ln) }()

	c, err := DialClient(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const total = 6
	inputs := make([][]byte, total)
	chans := make([]<-chan Result, total)
	for i := range chans {
		inputs[i] = bytes.Repeat([]byte{byte(0x40 + i)}, 1024)
		ch, err := c.ProposePayload(inputs[i])
		if err != nil {
			t.Fatalf("propose payload %d: %v", i, err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		select {
		case res := <-ch:
			if !res.Decided || !res.Committed {
				t.Fatalf("payload %d: %+v", i, res)
			}
			if !bytes.Equal(res.Payload, inputs[i]) {
				t.Fatalf("payload %d: response carries %d bytes, want the %d proposed bytes back",
					i, len(res.Payload), len(inputs[i]))
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("payload %d never resolved", i)
		}
	}

	// Client-side ceiling: oversize and empty payloads never hit the wire.
	if _, err := c.ProposePayload(make([]byte, MaxAPIPayload+1)); err == nil {
		t.Error("oversize payload left the client")
	}
	if _, err := c.ProposePayload(nil); err == nil {
		t.Error("empty payload left the client")
	}

	// Server-side ceiling: a payload over the service's MaxPayload (but
	// under the client ceiling) answers err, not silence.
	big := hex.EncodeToString(make([]byte, DefaultMaxPayload+1))
	mc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mc.Close() }()
	if _, err := fmt.Fprintf(mc, "proposeb r1 %s\n", big); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(mc, apiMaxLine)
	_ = mc.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to oversize proposeb: %v", err)
	}
	if !strings.HasPrefix(line, "err r1") || !strings.Contains(line, "max-payload") {
		t.Fatalf("oversize proposeb reply = %q, want err mentioning max-payload", line)
	}
}

// TestParseResultPayload: decidedb parsing round-trips committed and
// uncommitted responses and rejects garbage hex.
func TestParseResultPayload(t *testing.T) {
	res, ok := parseResult([]byte("decidedb 4 2 1 900 beef"))
	if !ok || !res.Decided || !res.Committed || res.Instance != 2 ||
		res.Latency != 900*time.Microsecond || !bytes.Equal(res.Payload, []byte{0xbe, 0xef}) {
		t.Fatalf("decidedb parse: %+v ok=%v", res, ok)
	}
	res, ok = parseResult([]byte("decidedb 5 3 0 100 -"))
	if !ok || !res.Decided || res.Committed || res.Payload != nil {
		t.Fatalf("uncommitted decidedb parse: %+v ok=%v", res, ok)
	}
	for _, bad := range []string{"decidedb 1 2 1 900", "decidedb 1 2 1 900 zz", "decidedb 1 x 1 900 beef"} {
		if _, ok := parseResult([]byte(bad)); ok {
			t.Errorf("parsed garbage %q", bad)
		}
	}
}

// TestParseResult: response parsing round-trips the three verdicts and
// rejects garbage.
func TestParseResult(t *testing.T) {
	res, ok := parseResult([]byte("decided 7 3 99 1 1500"))
	if !ok || !res.Decided || res.ReqID != "7" || res.Instance != 3 || res.Digest != 99 ||
		!res.Committed || res.Latency != 1500*time.Microsecond {
		t.Fatalf("decided parse: %+v ok=%v", res, ok)
	}
	res, ok = parseResult([]byte("busy 8 50"))
	if !ok || !res.Busy || res.RetryAfter != 50*time.Millisecond {
		t.Fatalf("busy parse: %+v ok=%v", res, ok)
	}
	res, ok = parseResult([]byte("err 9 something broke"))
	if !ok || res.Err != "something broke" {
		t.Fatalf("err parse: %+v ok=%v", res, ok)
	}
	for _, bad := range []string{"", "decided", "decided 1 2", "what 1 2 3", "busy x y"} {
		if _, ok := parseResult([]byte(bad)); ok {
			t.Errorf("parsed garbage %q", bad)
		}
	}
}

// TestParseLineAllocations: both ends parse a line where the scanner
// holds it, splitting it into fields on the stack. Parsing a warm 8 KiB
// proposeb line with no buffer to decode into, or the decidedb answer
// that echoes its payload, allocates the 4 KiB payload at exactly its
// size and the request ID, nothing else: no field slice, no string copy
// of the line, no 8 KiB decode buffer, and no payload that aliases the
// line. A proposeb line decoded into a recycled buffer, a propose line
// and a decided answer allocate the request ID alone.
func TestParseLineAllocations(t *testing.T) {
	payload := bytes.Repeat([]byte{0x00, 0x5a, 0xff, 0x13}, 1<<10)
	request := fmt.Appendf(nil, "proposeb r1 %x", payload)
	recycled := make([]byte, 0, len(payload))
	answer := appendAnswer(nil, "r1", true, Decision{Instance: 3, Committed: true, Latency: time.Millisecond, Payload: payload})
	answer = answer[:len(answer)-1] // the scanner strips the newline
	valueRequest := []byte("propose r2 1234567")
	valueAnswer := []byte("decided r2 3 4611686018427387909 1 1843")
	for _, tc := range []struct {
		name   string
		parse  func() []byte
		allocs float64
	}{
		{"proposeb", func() []byte {
			req, refusal := parseRequest(request, nil)
			if refusal != "" {
				t.Fatal(refusal)
			}
			return req.payload
		}, 2},
		{"proposeb into a recycled buffer", func() []byte {
			req, refusal := parseRequest(request, recycled)
			if refusal != "" {
				t.Fatal(refusal)
			}
			return req.payload
		}, 1},
		{"decidedb", func() []byte {
			res, ok := parseResult(answer)
			if !ok {
				t.Fatal("answer did not parse")
			}
			return res.Payload
		}, 2},
		{"propose", func() []byte {
			if req, refusal := parseRequest(valueRequest, nil); refusal != "" || req.reqid != "r2" || req.value != 1234567 {
				t.Fatalf("parsed %+v, %q", req, refusal)
			}
			return nil
		}, 1},
		{"decided", func() []byte {
			if res, ok := parseResult(valueAnswer); !ok || res.ReqID != "r2" || res.Digest != 1<<62+5 || res.Latency != 1843*time.Microsecond {
				t.Fatalf("parsed %+v, %v", res, ok)
			}
			return nil
		}, 1},
	} {
		got := tc.parse()
		if tc.allocs == 2 && (!bytes.Equal(got, payload) || cap(got) != len(payload)) {
			t.Errorf("%s: parsed %d bytes at capacity %d; want the %d-byte payload at its exact size", tc.name, len(got), cap(got), len(payload))
		}
		if got != nil && tc.allocs == 1 && (!bytes.Equal(got, payload) || &got[0] != &recycled[:1][0]) {
			t.Errorf("%s: parsed %d bytes, not the %d-byte payload in the buffer handed in", tc.name, len(got), len(payload))
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() { tc.parse() })
		runtime.ReadMemStats(&after)
		// The bytes leave room for the request ID and no line-sized
		// object besides a fresh payload.
		limit := 512
		if tc.allocs == 2 {
			limit += len(got)
		}
		perLine := int(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
		if allocs != tc.allocs || perLine > limit {
			t.Errorf("%s: parsing a line allocates %.1f objects, %d bytes; want %.0f objects and at most %d bytes",
				tc.name, allocs, perLine, tc.allocs, limit)
		}
	}
}

// decisionLine is appendAnswer's line as a string, the form the
// line-protocol tests parse.
func decisionLine(reqid string, isPayload bool, d Decision) string {
	return string(appendAnswer(nil, reqid, isPayload, d))
}

// TestAPILinesMatchSprintfRendering: the answer and request lines built
// by appending are byte for byte the lines fmt rendered before —
// Fprintln of the Sprintf answer on the server, Fprintf of the request
// format on the client — so no client of the line protocol can tell.
func TestAPILinesMatchSprintfRendering(t *testing.T) {
	payload := bytes.Repeat([]byte{0x00, 0x5a, 0xff, 0x13}, 1<<10)
	sprintfDecision := func(reqid string, isPayload bool, d Decision) string {
		committed := 0
		if d.Committed {
			committed = 1
		}
		if !isPayload {
			return fmt.Sprintf("decided %s %d %d %d %d\n",
				reqid, d.Instance, int(d.Digest), committed, d.Latency.Microseconds())
		}
		echo := "-"
		if d.Committed {
			echo = hex.EncodeToString(d.Payload)
		}
		return fmt.Sprintf("decidedb %s %d %d %d %s\n",
			reqid, d.Instance, committed, d.Latency.Microseconds(), echo)
	}
	for _, tc := range []struct {
		reqid     string
		isPayload bool
		d         Decision
	}{
		{"r1", true, Decision{Instance: 12, Committed: true, Latency: 1843 * time.Microsecond, Payload: payload}},
		{"r2", true, Decision{Instance: 1 << 40, Latency: time.Second, Payload: payload}},
		{"r3", true, Decision{Instance: 0, Committed: true, Payload: []byte{}}},
		{"4", false, Decision{Instance: 7, Digest: 1<<62 + 5, Committed: true, Latency: 900 * time.Microsecond}},
		{"5", false, Decision{Instance: 8}},
	} {
		want := sprintfDecision(tc.reqid, tc.isPayload, tc.d)
		if got := appendAnswer(nil, tc.reqid, tc.isPayload, tc.d); string(got) != want {
			t.Errorf("answer %s: appended %.80q, Sprintf rendered %.80q", tc.reqid, got, want)
		}
	}

	srv, cli := net.Pipe()
	defer func() { _ = srv.Close() }()
	c := &Client{conn: cli, w: newLineWriter(), waiters: make(map[string]chan Result)}
	lines := make(chan string, 2)
	go func() {
		r := bufio.NewReaderSize(srv, apiMaxLine)
		for range 2 {
			line, _ := r.ReadString('\n')
			lines <- line
		}
	}()
	if _, err := c.ProposePayload(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Propose(-42); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{
		fmt.Sprintf("proposeb %s %s\n", "1", hex.EncodeToString(payload)),
		fmt.Sprintf("propose %s %d\n", "2", -42),
	} {
		if got := <-lines; got != want {
			t.Errorf("request %d: appended %.80q, Fprintf rendered %.80q", i+1, got, want)
		}
	}
}

// FuzzAPILine drives both line parsers with arbitrary text. Neither may
// panic, and both split a line exactly as bytes.Fields would. A request line either parses — and then renders back to a line
// that parses to the same request, and every answer the server can give
// it parses on the client side under the same request ID — or is
// refused with an `err` line the client can parse, or is blank. A
// response line that parses carries a request ID and exactly one
// verdict.
//
// One seed is a request at the apiMaxLine limit. Fuzz with
// -fuzzminimizetime=10x (as CI does): left unbounded, the engine spends
// its time minimizing that seed's 64 KiB mutants instead of executing.
func FuzzAPILine(f *testing.F) {
	atMax := "proposeb r " + strings.Repeat("ab", (apiMaxLine-len("proposeb r "))/2)
	for _, seed := range []string{
		"propose 7 42",
		"proposeb r1 deadbeef",
		"proposeb r2 abc", // odd-length hex
		"propose  5",      // empty reqid: two fields
		"propose 1 -3",
		"propose 1 2 3",
		"",
		atMax,
		"decided 7 3 99 1 1500",
		"decidedb 4 2 1 900 beef",
		"decidedb 5 3 0 100 -",
		"busy 8 50",
		"err 9 something broke",
		"propose\u0085r3\u00a042",        // Unicode spaces: NEL and no-break space
		"\t\t propose \t\t r4\t\t\t7 \t", // a tab run
		"propose r5 \x85\xa0 \xff",       // invalid UTF-8: the bytes of NEL and NBSP, unencoded
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		// The split is bytes.Fields': as many of its fields as the
		// array holds, and "all" exactly when that is every one.
		want := bytes.Fields([]byte(line))
		var three [3][]byte
		var six [6][]byte
		for _, dst := range [][][]byte{three[:0], six[:0]} {
			got, all := splitFields(dst, []byte(line))
			if all != (len(want) <= cap(dst)) || len(got) != min(len(want), cap(dst)) {
				t.Fatalf("%q: split %d fields into %d, all=%v; bytes.Fields has %d", line, len(got), cap(dst), all, len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) || cap(got[i]) != len(got[i]) {
					t.Fatalf("%q: field %d split as %q (capacity %d), bytes.Fields has %q", line, i, got[i], cap(got[i]), want[i])
				}
			}
		}

		req, refusal := parseRequest([]byte(line), nil)
		// Decoded into a zeroed buffer handed in, the line parses alike,
		// and a refusal leaves the buffer zeroed.
		buf := make([]byte, 0, 64)
		inBuf, inBufRefusal := parseRequest([]byte(line), buf)
		if inBufRefusal != refusal || inBuf.reqid != req.reqid || inBuf.isPayload != req.isPayload ||
			inBuf.value != req.value || !bytes.Equal(inBuf.payload, req.payload) {
			t.Fatalf("%q parsed to %+v (%q), and into a buffer to %+v (%q)", line, req, refusal, inBuf, inBufRefusal)
		}
		if refusal != "" && !bytes.Equal(buf[:cap(buf)], make([]byte, cap(buf))) {
			t.Fatalf("refused %q, leaving bytes in the buffer handed in", line)
		}
		switch {
		case refusal != "":
			if res, ok := parseResult([]byte(refusal)); !ok || res.Err == "" || res.Decided || res.Busy {
				t.Fatalf("refusal %q of %q does not parse as an err line: %+v", refusal, line, res)
			}
		case req.reqid != "":
			rendered := fmt.Sprintf("propose %s %d", req.reqid, req.value)
			if req.isPayload {
				rendered = fmt.Sprintf("proposeb %s %x", req.reqid, req.payload)
			}
			again, refusal := parseRequest([]byte(rendered), nil)
			if refusal != "" || again.reqid != req.reqid || again.isPayload != req.isPayload ||
				again.value != req.value || !bytes.Equal(again.payload, req.payload) {
				t.Fatalf("%q parsed to %+v, which renders to %q and parses to %+v (%q)", line, req, rendered, again, refusal)
			}
			d := Decision{Instance: 3, Digest: 99, Committed: true, Latency: time.Millisecond, Payload: req.payload}
			for _, answer := range []string{
				decisionLine(req.reqid, req.isPayload, d),
				decisionLine(req.reqid, req.isPayload, Decision{Instance: 3}),
				fmt.Sprintf("busy %s %d", req.reqid, 50),
				fmt.Sprintf("err %s %v", req.reqid, ErrClosed),
			} {
				res, ok := parseResult([]byte(answer))
				if !ok || res.ReqID != req.reqid {
					t.Fatalf("answer %q to %q parsed to %+v ok=%v", answer, line, res, ok)
				}
			}
			if res, _ := parseResult([]byte(decisionLine(req.reqid, req.isPayload, d))); !res.Committed || !bytes.Equal(res.Payload, req.payload) {
				t.Fatalf("committed answer to %q lost its payload: %+v", line, res)
			}
		case strings.TrimSpace(line) != "":
			t.Fatalf("%q earned neither a request nor a refusal", line)
		}

		if res, ok := parseResult([]byte(line)); ok {
			verdicts := 0
			for _, v := range []bool{res.Decided, res.Busy, res.Err != ""} {
				if v {
					verdicts++
				}
			}
			// `err <reqid>` with no message is the one verdict-less line.
			if res.ReqID == "" || verdicts > 1 || (verdicts == 0 && !strings.HasPrefix(strings.TrimSpace(line), "err")) {
				t.Fatalf("%q parsed to %+v", line, res)
			}
		}
	})
}
