package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"proxcensus/internal/ba"
	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/validate"
	"proxcensus/internal/wire"
)

// ingressFixture builds one instance's receive state with a live
// ForHalf validator plus one round batch of n signed votes in wire
// form, the traffic shape a steady-state ingress round decodes and
// screens.
func ingressFixture(t testing.TB, n int) (*instanceRun, []wire.BatchMsg) {
	t.Helper()
	setup, err := ba.NewSetup(n, (n-1)/2, ba.CoinThreshold, 7)
	if err != nil {
		t.Fatal(err)
	}
	nd := &instanceRun{
		node:    &MuxNode{},
		dec:     wire.NewDecoder(),
		ingress: validate.New(validate.ForHalf(n)),
	}
	msgs := make([]wire.BatchMsg, 0, n)
	for i := 0; i < n; i++ {
		v := i % 2
		raw, err := wire.Encode(proxcensus.LinearVote{
			V:     v,
			Share: threshsig.SignShare(setup.ProxSKs[i], proxcensus.LinearSigmaMessage(v)),
		})
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, wire.BatchMsg{Addr: i, Payload: raw})
	}
	return nd, msgs
}

// TestIngressSteadyStateAllocations locks in the pooled receive path:
// once the node's scratch and the validator's caches are warm (the
// first rounds grow them), decoding and screening a full round batch —
// interning decode, batched signature verification, inbox routing —
// must allocate nothing. Style follows sim's
// TestRunSteadyStateAllocations.
func TestIngressSteadyStateAllocations(t *testing.T) {
	nd, msgs := ingressFixture(t, 16)
	round := 1
	for w := 0; w < 3; w++ { // warm scratch, intern cache, message cache
		if got := len(nd.decodeRound(round, msgs)); got != len(msgs) {
			t.Fatalf("warm round admitted %d of %d", got, len(msgs))
		}
		round += 3 // every batch lands in a fresh vote round (round%3 == 1)
	}
	allocs := testing.AllocsPerRun(50, func() {
		inbox := nd.decodeRound(round, msgs)
		if len(inbox) != len(msgs) {
			t.Fatalf("steady round admitted %d of %d", len(inbox), len(msgs))
		}
		round += 3
	})
	if allocs != 0 {
		t.Errorf("steady-state ingress round allocates %.1f objects; want 0", allocs)
	}
}

// TestSendSteadyStateAllocations is the egress twin: once one instance
// has grown a node's payload arena and its slot's frame, every later
// instance on the slot encodes a round of sends — signed votes, a
// payload echo and a share certificate, whose blob and share list are
// copied into the arena — frames it, queues it on the outbox and writes
// it with no allocation. Each measured send is a fresh instance's first,
// so the pin holds only because the buffers belong to the node and the
// slot, not to the instance.
func TestSendSteadyStateAllocations(t *testing.T) {
	_, msgs := ingressFixture(t, 16)
	sends := make([]sim.Send, 0, len(msgs)+2)
	cert := proxcensus.LinearSigmaCert{V: 1}
	for i := range msgs {
		p, err := wire.Decode(msgs[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		sends = append(sends, sim.Send{To: sim.Broadcast, Payload: p})
		cert.Shares = append(cert.Shares, p.(proxcensus.LinearVote).Share)
	}
	sends = append(sends,
		sim.Send{To: 3, Payload: ba.TCPayloadEcho{Data: bytes.Repeat([]byte{0x5a}, 4<<10), Valid: true}},
		sim.Send{To: sim.Broadcast, Payload: cert})
	conn := &frameLoopConn{}
	ir := &instanceRun{node: &MuxNode{outbox: outbox{conn: conn}, cfg: DefaultConfig()}, inst: 1}
	if err := ir.sendRound(5, sends); err != nil { // instance 1 warms the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		ir.inst++
		if err := ir.sendRound(5, sends); err != nil {
			t.Fatal(err)
		}
	})
	inst := ir.inst
	if allocs != 0 {
		t.Errorf("a warm node's next instance allocates %.1f objects to send a round; want 0", allocs)
	}

	// What went out is the last instance's round, encoded send by send.
	batch := make([]wire.BatchMsg, len(sends))
	for i, s := range sends {
		raw, err := wire.Encode(s.Payload)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = wire.BatchMsg{Addr: s.To, Payload: raw}
	}
	body, err := wire.AppendEncodeTaggedBatch(nil, inst, 5, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(conn.wrote, framed(body)) {
		t.Errorf("instance %d wrote %d bytes, want its %d-byte round frame", inst, len(conn.wrote), frameHeader+len(body))
	}
}

// frameLoopConn is an in-memory net.Conn that serves one wire frame —
// length header, then body — over and over, and counts writes, keeping
// the last one. Only Read, Write and the two deadline setters are
// implemented.
type frameLoopConn struct {
	net.Conn
	wire   []byte
	off    int
	writes int
	wrote  []byte
}

func (c *frameLoopConn) Read(p []byte) (int, error) {
	n := copy(p, c.wire[c.off:])
	c.off = (c.off + n) % len(c.wire)
	return n, nil
}

func (c *frameLoopConn) Write(p []byte) (int, error) {
	c.writes++
	c.wrote = append(c.wrote[:0], p...)
	return len(p), nil
}

func (c *frameLoopConn) SetReadDeadline(time.Time) error  { return nil }
func (c *frameLoopConn) SetWriteDeadline(time.Time) error { return nil }

// TestReadFrameIntoWarmAllocations pins the frame reader every mux
// reader goroutine runs, through the connection's buffered reader: with
// a warm buffer, reading a round frame — header and body, out of the
// connection buffer — allocates nothing. The length header once lived
// in a local array, which io.ReadFull's interface call moved to the
// heap: one allocation per frame.
func TestReadFrameIntoWarmAllocations(t *testing.T) {
	_, msgs := ingressFixture(t, 16)
	body, err := wire.AppendEncodeTaggedBatch(nil, LocalInstance, 1, msgs)
	if err != nil {
		t.Fatal(err)
	}
	conn := &frameLoopConn{wire: framed(body)}
	br := newConnReader(conn)
	deadline := time.Now().Add(time.Minute)
	var buf []byte
	allocs := testing.AllocsPerRun(50, func() { // the warm-up run grows buf
		buf, err = readFrameInto(conn, br, deadline, buf[:0])
		if err != nil || !bytes.Equal(buf, body) {
			t.Fatalf("read %d bytes, err %v; want the %d-byte frame", len(buf), err, len(body))
		}
	})
	if allocs != 0 {
		t.Errorf("warm frame read allocates %.2f objects per frame; want 0", allocs)
	}
}

// TestWriteFrameWarmAllocations pins the frame writer: a lone sender's
// sealed frame — the length prefix reserved and filled in its slot's
// frame — goes out in one conn.Write, and once one instance has grown
// that buffer, a second instance's round goes out with no allocation. A
// 4-byte header array written on its own once escaped through the
// interface call: one allocation, and one extra syscall, per frame.
func TestWriteFrameWarmAllocations(t *testing.T) {
	_, msgs := ingressFixture(t, 16)
	sends := make([]sim.Send, len(msgs))
	for i := range msgs {
		p, err := wire.Decode(msgs[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		sends[i] = sim.Send{To: sim.Broadcast, Payload: p}
	}
	conn := &frameLoopConn{}
	ir := &instanceRun{node: &MuxNode{outbox: outbox{conn: conn}, cfg: DefaultConfig()}, inst: 1}
	if err := ir.sendRound(1, sends); err != nil { // instance 1 warms the buffers
		t.Fatal(err)
	}
	ir.inst = 2
	allocs := testing.AllocsPerRun(50, func() {
		if err := ir.sendRound(1, sends); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm frame write allocates %.2f objects per frame; want 0", allocs)
	}
	if conn.writes != 52 {
		t.Errorf("%d rounds went out in %d writes; want one write per frame", 52, conn.writes)
	}
	frame := conn.wrote
	if size := binary.BigEndian.Uint32(frame); int(size) != len(frame)-frameHeader {
		t.Fatalf("length prefix %d on a %d-byte body", size, len(frame)-frameHeader)
	}
	if inst, round, got, err := wire.DecodeTaggedBatch(frame[frameHeader:]); err != nil || inst != 2 || round != 1 || len(got) != len(sends) {
		t.Errorf("written frame decodes to instance %d round %d with %d entries (%v); want instance 2 round 1 with %d", inst, round, len(got), err, len(sends))
	}
}

// TestHubGatherWarmAllocations pins a hub round's gather: with every
// lane holding its node's frame, gathering all sixteen against the
// instance's re-armed timer allocates nothing. A gather goroutine and a
// timer per node once cost a round 2n objects and more.
func TestHubGatherWarmAllocations(t *testing.T) {
	const n = 16
	h := &MuxHub{
		n:      n,
		cfg:    quickConfig().withDefaults(),
		frames: make(frameList, frameListLen),
		conns:  make([]*muxConn, n),
		done:   make(chan struct{}),
	}
	hi := &HubInstance{h: h, mail: make([]chan muxBatch, n), dead: make([]bool, n), log: newEventLog(n), roundScratch: newRoundScratch(n)}
	for id := range hi.mail {
		h.conns[id] = &muxConn{down: make(chan struct{})}
		hi.mail[id] = make(chan muxBatch, muxMailDepth)
	}
	defer func() { hi.timer.Stop() }()
	round := 1
	step := func() {
		for id := range hi.mail {
			hi.mail[id] <- muxBatch{round: round, frame: h.frames.get()}
		}
		hi.gatherRound(round)
		for id, f := range hi.batches {
			if f == nil {
				t.Fatalf("round %d: node %d not gathered: %v", round, id, hi.log.snapshot().Events)
			}
			h.frames.put(f)
		}
		round++
	}
	step() // makes the timer and the frames
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("warm gather round allocates %.1f objects; want 0", allocs)
	}
}

// TestAwaitLaneWarmAllocations pins a node's receive wait: taking a
// round's delivery off its lane against the instance's re-armed timer
// allocates nothing.
func TestAwaitLaneWarmAllocations(t *testing.T) {
	nd := &MuxNode{frames: make(frameList, frameListLen), done: make(chan struct{})}
	ir := &instanceRun{node: nd}
	defer func() { ir.timer.Stop() }()
	lane := make(chan muxBatch, muxMailDepth)
	round := 1
	step := func() {
		lane <- muxBatch{round: round, frame: nd.frames.get()}
		f, err := ir.awaitLane(lane, round, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		nd.frames.put(f)
		round++
	}
	step() // makes the timer and the frame
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("warm lane wait allocates %.1f objects; want 0", allocs)
	}
}

// TestReceivePathMatchesLegacyDecode cross-checks the receive path — a
// frame parsed in place, then decodeRound over the aliasing batch —
// against a from-scratch copying decode of the same frame: same
// admitted senders, same payload values.
func TestReceivePathMatchesLegacyDecode(t *testing.T) {
	nd, msgs := ingressFixture(t, 16)
	body, err := wire.AppendEncodeTaggedBatch(nil, LocalInstance, 1, msgs)
	if err != nil {
		t.Fatal(err)
	}
	_, round, fresh, err := wire.DecodeTaggedBatch(body)
	if err != nil || round != 1 {
		t.Fatalf("round %d err %v", round, err)
	}
	f := &frame{buf: body}
	if _, round, _, err := f.parse(-1); err != nil || round != 1 {
		t.Fatalf("round %d err %v", round, err)
	}
	inbox := nd.decodeRound(1, f.msgs)
	if len(inbox) != len(fresh) {
		t.Fatalf("admitted %d of %d", len(inbox), len(fresh))
	}
	for i, m := range inbox {
		if m.From != fresh[i].Addr || m.Round != 1 || m.To != 0 {
			t.Fatalf("message %d misrouted: %+v", i, m)
		}
		p, err := wire.Decode(fresh[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if m.Payload != p {
			t.Fatalf("message %d payload diverges: %v != %v", i, m.Payload, p)
		}
	}
}

// TestPayloadRoundDecodeAllocations pins the payload floor of the
// receive path: a warm decodeRound over a round of sixteen 16 KiB
// echoes allocates the sixteen Payload interface boxes and nothing that
// scales with the payload — every decoded blob sub-slices the frame —
// and admits what the copying decode of the same frame holds.
func TestPayloadRoundDecodeAllocations(t *testing.T) {
	const n, size = 16, 16 << 10
	ir := &instanceRun{
		node:    &MuxNode{},
		dec:     wire.NewDecoder(),
		ingress: validate.New(validate.ForPayloadService(n, size)),
	}
	msgs := make([]wire.BatchMsg, n)
	for i := range msgs {
		raw, err := wire.Encode(ba.TCPayloadEcho{Data: bytes.Repeat([]byte{byte(i / 4)}, size), Valid: true})
		if err != nil {
			t.Fatal(err)
		}
		msgs[i] = wire.BatchMsg{Addr: i, Payload: raw}
	}
	body, err := wire.AppendEncodeTaggedBatch(nil, LocalInstance, 2, msgs)
	if err != nil {
		t.Fatal(err)
	}
	f := &frame{buf: body}
	if _, _, _, err := f.parse(-1); err != nil {
		t.Fatal(err)
	}
	round := 2
	step := func() {
		if got := len(ir.decodeRound(round, f.msgs)); got != n {
			t.Fatalf("round %d admitted %d of %d", round, got, n)
		}
		round++ // a fresh round, or the screen would reject the batch as duplicates
	}
	for w := 0; w < 3; w++ { // warm scratch and the screen's per-round maps
		step()
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != n {
		t.Errorf("payload round decode allocates %.1f objects; want the %d interface boxes", allocs, n)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if perRound := (after.TotalAlloc - before.TotalAlloc) / runs; perRound >= 4<<10 {
		t.Errorf("payload round decode allocates %d B for %d KiB of payload; want under 4 KiB", perRound, n*size>>10)
	}
	inbox := ir.decodeRound(round, f.msgs)
	for i, m := range inbox {
		want, err := wire.Decode(msgs[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := m.Payload.(ba.TCPayloadEcho)
		if !ok || m.From != i || !got.Valid || !bytes.Equal(got.Data, want.(ba.TCPayloadEcho).Data) {
			t.Fatalf("message %d diverges from the copying decode", i)
		}
	}
	last := inbox[n-1].Payload.(ba.TCPayloadEcho).Data
	// Senders 12 to 15 echo one blob, so the frame carries it once: the
	// last literal, then three 16-byte back-references to it.
	body[len(body)-3*16-2] ^= 0xFF // the literal's last blob byte; the valid flag follows it
	if last[size-1] == byte((n-1)/4) {
		t.Error("decoded blob does not alias the frame")
	}
}

// TestReceiveDoesNotAmplify: a delivery of one 1 MiB literal and 255
// back-references to it costs each receive path its frame plus the
// entry list, however often the frame repeats the blob — the hub
// reader's parse allocates the entry list alone into a frame it already
// holds, and RawClient.Recv what reading the frame costs by itself plus
// the list. The references count toward DefaultFloodLimit like any
// entry.
func TestReceiveDoesNotAmplify(t *testing.T) {
	const size, entryBudget = 1 << 20, 64 << 10
	blob := bytes.Repeat([]byte{0x6b}, size)
	msgs := make([]wire.BatchMsg, DefaultFloodLimit+1)
	for i := range msgs {
		msgs[i] = wire.BatchMsg{Addr: i % 16, Payload: blob}
	}
	body, err := wire.AppendEncodeTaggedBatch(nil, LocalInstance, 3, msgs[:DefaultFloodLimit])
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(step func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		step()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	check := func(path string, got []wire.BatchMsg) {
		t.Helper()
		if len(got) != DefaultFloodLimit {
			t.Fatalf("%s: %d entries, want %d", path, len(got), DefaultFloodLimit)
		}
		for i := range got {
			if !bytes.Equal(got[i].Payload, blob) {
				t.Fatalf("%s: entry %d differs", path, i)
			}
		}
	}

	f := &frame{buf: body}
	if b := allocated(func() {
		if _, _, _, err := f.parse(DefaultFloodLimit); err != nil {
			t.Fatal(err)
		}
	}); b > entryBudget {
		t.Errorf("hub parse allocated %d B for %d entries; want at most %d", b, DefaultFloodLimit, entryBudget)
	}
	check("hub parse", f.msgs)

	cfg := quickConfig().withDefaults()
	hubEnd, nodeEnd := net.Pipe()
	defer func() { _ = hubEnd.Close() }()
	c := &RawClient{conn: nodeEnd, cfg: cfg}
	defer func() { _ = c.Close() }()
	// receive sends body down the pipe and measures what step allocates
	// taking it off.
	sealed := framed(body)
	receive := func(step func()) uint64 {
		sent := make(chan error, 1)
		go func() { sent <- writeFrame(hubEnd, sealed, time.Now().Add(time.Minute)) }()
		b := allocated(step)
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		return b
	}
	// The frame's own cost: its buffer, which a -race build grows
	// through a temporary, and the pipe's bookkeeping.
	frameCost := receive(func() {
		if _, err := readFrame(nodeEnd, time.Now().Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
	})
	var got []wire.BatchMsg
	if b := receive(func() {
		if _, got, err = c.Recv(); err != nil {
			t.Fatal(err)
		}
	}); b > frameCost+entryBudget {
		t.Errorf("RawClient.Recv allocated %d B for a %d B frame that costs %d B to read; want at most %d more",
			b, len(body), frameCost, entryBudget)
	}
	check("RawClient.Recv", got)

	// One reference past the cap is dropped, not parsed.
	over, err := wire.AppendEncodeTaggedBatch(nil, LocalInstance, 3, msgs)
	if err != nil {
		t.Fatal(err)
	}
	f = &frame{buf: over}
	if _, _, dropped, err := f.parse(DefaultFloodLimit); err != nil || dropped != 1 {
		t.Fatalf("over-cap parse: dropped %d, err %v; want 1 dropped", dropped, err)
	}
	check("over-cap hub parse", f.msgs)
}
