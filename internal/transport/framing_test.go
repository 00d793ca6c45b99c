package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"proxcensus/internal/wire"
)

// The tests in this file pin what reading through a per-connection
// buffer must not change: frames that share a TCP segment are each
// parsed exactly once and in order, on the hub and on the node, the
// hello's buffer carries over into the hub's reader, and a node's
// replacement connection starts from a clean buffer. The gather tests
// pin the hub's one timer per instance.

// laneWait bounds how long a test waits for a frame to reach a lane.
const laneWait = 2 * time.Second

// roundFrame seals a one-entry batch of instance inst whose payload is
// size bytes of the round number.
func roundFrame(t *testing.T, inst, round, size int) []byte {
	t.Helper()
	msgs := []wire.BatchMsg{{Addr: round % 3, Payload: bytes.Repeat([]byte{byte(round)}, size)}}
	frame, err := wire.AppendEncodeTaggedBatch(beginFrame(nil), inst, round, msgs)
	if err != nil {
		t.Fatal(err)
	}
	return sealFrame(frame)
}

// expectLane takes frames off a lane and checks that they carry
// exactly the given rounds' roundFrame payloads, in order, and that
// nothing follows them. Each frame goes back on list.
func expectLane(t *testing.T, lane chan muxBatch, list frameList, rounds, sizes []int) {
	t.Helper()
	for i, r := range rounds {
		select {
		case b := <-lane:
			want := bytes.Repeat([]byte{byte(r)}, sizes[i])
			if b.round != r || len(b.frame.msgs) != 1 || b.frame.msgs[0].Addr != r%3 || !bytes.Equal(b.frame.msgs[0].Payload, want) {
				t.Fatalf("frame %d: round %d with %d entries; want round %d's %d-byte payload", i, b.round, len(b.frame.msgs), r, sizes[i])
			}
			list.put(b.frame)
		case <-time.After(laneWait):
			t.Fatalf("frame %d (round %d) never reached the lane", i, r)
		}
	}
	select {
	case b := <-lane:
		t.Fatalf("an extra round-%d frame reached the lane", b.round)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestHelloAndRoundFrameInOneWrite: a peer that sends its hello and its
// round-1 frame in one Write is admitted and gathered. The hello is read
// through the buffer the hub's reader then inherits, so the frame the
// same segment carried is not lost with a buffer of the hello's own.
func TestHelloAndRoundFrameInOneWrite(t *testing.T) {
	hub := rawHub(t, 1)
	hi, err := hub.StartInstance(LocalInstance, 1)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	round1, err := wire.AppendEncodeTaggedBatch(nil, LocalInstance, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	segment := append(framed(wire.EncodeHello(0, 0)), framed(round1)...)
	if _, err := conn.Write(segment); err != nil {
		t.Fatal(err)
	}
	if err := hub.AwaitNodes(time.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hi.Run() }()
	if r := readRoundFrame(t, conn); r != 1 {
		t.Errorf("delivery round = %d, want 1", r)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rep := hi.Report(); rep.Deaths() != 0 {
		t.Errorf("the round-1 frame behind the hello was lost: %v", rep.Events)
	}
}

// TestCoalescedFramesEachReadOnce: k frames sent in one Write — one
// body larger than the connection buffer among small ones — reach the
// hub's reader and the node's reader in order, each exactly once.
// Building the buffered reader per frame would drop what the first
// read buffered past its frame (scripts/lint_mutation.sh, mutation 11).
func TestCoalescedFramesEachReadOnce(t *testing.T) {
	const inst = 5
	rounds := []int{1, 2, 3, 4}
	sizes := []int{24, connBufSize + 1000, 0, 300}
	var segment []byte
	for i, r := range rounds {
		segment = append(segment, roundFrame(t, inst, r, sizes[i])...)
	}

	t.Run("hub", func(t *testing.T) {
		hub := rawHub(t, 1)
		hi, err := hub.StartInstance(inst, len(rounds))
		if err != nil {
			t.Fatal(err)
		}
		conn := rawDial(t, hub.Addr(), 0, 0)
		defer func() { _ = conn.Close() }()
		if _, err := conn.Write(segment); err != nil {
			t.Fatal(err)
		}
		expectLane(t, hi.mail[0], hub.frames, rounds, sizes)
	})

	t.Run("node", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ln.Close() }()
		nd, err := NewMuxNode(ln.Addr().String(), 0, quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = nd.Close() }()
		hubEnd := acceptHello(t, ln, 0)
		defer func() { _ = hubEnd.Close() }()
		lane, err := nd.register(inst)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hubEnd.Write(segment); err != nil {
			t.Fatal(err)
		}
		expectLane(t, lane, nd.frames, rounds, sizes)
	})
}

// acceptHello accepts one connection on ln and reads its hello, which
// must carry the given resume field.
func acceptHello(t *testing.T, ln net.Listener, resume int) net.Conn {
	t.Helper()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	hello, err := readFrame(conn, time.Now().Add(laneWait))
	if err != nil {
		t.Fatal(err)
	}
	if _, got, _, err := wire.DecodeHello(hello); err != nil || got != resume {
		t.Fatalf("hello resume %d, err %v; want resume %d", got, err, resume)
	}
	return conn
}

// TestNodeRedialDiscardsOldConnectionBytes: the hub's connection dies
// with half a frame sent. The node redials, and its reader starts over
// on the replacement connection: the next frame parses whole, and no
// byte of the old connection's half frame is read as part of it.
func TestNodeRedialDiscardsOldConnectionBytes(t *testing.T) {
	const inst = 5
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	nd, err := NewMuxNode(ln.Addr().String(), 0, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nd.Close() }()
	first := acceptHello(t, ln, 0)
	lane, err := nd.register(inst)
	if err != nil {
		t.Fatal(err)
	}
	cut := roundFrame(t, inst, 2, 600)
	segment := append(roundFrame(t, inst, 1, 40), cut[:len(cut)/2]...)
	if _, err := first.Write(segment); err != nil {
		t.Fatal(err)
	}
	_ = first.Close()
	second := acceptHello(t, ln, 1)
	defer func() { _ = second.Close() }()
	if _, err := second.Write(roundFrame(t, inst, 2, 90)); err != nil {
		t.Fatal(err)
	}
	expectLane(t, lane, nd.frames, []int{1, 2}, []int{40, 90})
}

// TestGatherRearmsAfterMissedDeadline: node 2 misses round 1's deadline
// and dies there. Every later round re-arms the instance's one timer
// for a fresh deadline, so nodes 0 and 1, which send each later round a
// third of a deadline after their delivery, are gathered in every one.
func TestGatherRearmsAfterMissedDeadline(t *testing.T) {
	const rounds, lag = 3, 130 * time.Millisecond // quickConfig's deadline is 400 ms
	hub := rawHub(t, 3)
	live := []net.Conn{rawDial(t, hub.Addr(), 0, 0), rawDial(t, hub.Addr(), 1, 0)}
	silent := rawDial(t, hub.Addr(), 2, 0)
	defer func() { _ = silent.Close() }()
	report := serve(t, hub, rounds)
	for r := 1; r <= rounds; r++ {
		if r > 1 {
			time.Sleep(lag)
		}
		for _, c := range live {
			sendEmptyRound(t, c, r)
		}
		for _, c := range live {
			if got := readRoundFrame(t, c); got != r {
				t.Fatalf("delivery round = %d, want %d", got, r)
			}
		}
	}
	rep := report()
	for _, c := range live {
		_ = c.Close()
	}
	if rep.Count(EventDeath) != 1 || !rep.Dead[2] || rep.Dead[0] || rep.Dead[1] {
		t.Fatalf("dead = %v; want node 2 alone, dead at round 1\nlog: %v", rep.Dead, rep.Events)
	}
	for _, e := range rep.Events {
		if e.Kind == EventDeath && e.Round != 1 {
			t.Errorf("node %d died at round %d, want round 1", e.Node, e.Round)
		}
	}
}

// TestGatherPollsQueuedFramesAfterDeadline: the hub waits on node 0,
// which never sends, while nodes 1 and 2 have their round-1 frames
// queued in their lanes. When the deadline fires only node 0 dies: the
// lanes after it are polled, and what sits in them is gathered.
func TestGatherPollsQueuedFramesAfterDeadline(t *testing.T) {
	hub := rawHub(t, 3)
	silent := rawDial(t, hub.Addr(), 0, 0)
	defer func() { _ = silent.Close() }()
	live := []net.Conn{rawDial(t, hub.Addr(), 1, 0), rawDial(t, hub.Addr(), 2, 0)}
	defer func() {
		for _, c := range live {
			_ = c.Close()
		}
	}()
	report := serve(t, hub, 1)
	for _, c := range live {
		sendEmptyRound(t, c, 1)
	}
	for _, c := range live {
		if got := readRoundFrame(t, c); got != 1 {
			t.Fatalf("delivery round = %d, want 1", got)
		}
	}
	rep := report()
	if rep.Count(EventDeath) != 1 || !rep.Dead[0] || rep.Dead[1] || rep.Dead[2] {
		t.Fatalf("dead = %v; want node 0 alone\nlog: %v", rep.Dead, rep.Events)
	}
}

// TestRearmDrainsStaleTick: a timer that fired while nobody watched its
// channel still holds the tick under the pre-1.23 timer semantics
// go.mod selects. rearm must drain it, or the next wait would end at
// once on the old deadline.
func TestRearmDrainsStaleTick(t *testing.T) {
	var timer *time.Timer
	rearm(&timer, time.Nanosecond)
	time.Sleep(20 * time.Millisecond) // fired, tick unobserved
	rearm(&timer, time.Hour)
	select {
	case <-timer.C:
		t.Fatal("a re-armed timer delivered the previous deadline's tick")
	case <-time.After(50 * time.Millisecond):
	}
	timer.Stop()
	rearm(&timer, time.Millisecond) // re-arming a stopped timer works too
	select {
	case <-timer.C:
	case <-time.After(laneWait):
		t.Fatal("a re-armed stopped timer never fired")
	}
}

// chunkConn is an in-memory net.Conn that serves a byte stream in the
// given chunk sizes, one chunk per Read at most, then io.EOF. Only Read
// and SetReadDeadline are implemented.
type chunkConn struct {
	net.Conn
	stream []byte
	chunks []byte
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	size := len(c.stream)
	if len(c.chunks) > 0 {
		size = int(c.chunks[0]) + 1
		c.chunks = c.chunks[1:]
	}
	n := copy(p, c.stream[:min(size, len(c.stream))])
	c.stream = c.stream[n:]
	return n, nil
}

func (c *chunkConn) SetReadDeadline(time.Time) error { return nil }

// readAll runs a reader loop to its first error, collecting frames.
func readAll(next func() ([]byte, error)) (frames [][]byte, err error) {
	for {
		frame, err := next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, bytes.Clone(frame))
	}
}

// FuzzReadFrames is the buffered reader's differential: an arbitrary
// byte stream, arriving in arbitrary read sizes, yields through a
// connection buffer exactly the frames, and the first error, that the
// unbuffered readFrame loop yields.
func FuzzReadFrames(f *testing.F) {
	stream := func(bodies ...[]byte) []byte {
		var s []byte
		for _, b := range bodies {
			s = append(s, framed(b)...)
		}
		return s
	}
	f.Add(stream([]byte("one"), nil, []byte("three")), []byte{0, 1, 2, 3})
	f.Add(stream(bytes.Repeat([]byte{7}, connBufSize+10), []byte{1}), []byte{200, 255, 3})
	f.Add(append(stream([]byte("whole")), 0, 0, 1), []byte{})
	f.Add(append(stream(nil), 0, 0, 0, 9, 1, 2), []byte{5})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}, []byte{0})
	f.Fuzz(func(t *testing.T, data, chunks []byte) {
		// A header naming more bytes than the stream holds makes both
		// readers grow a buffer of that size before they fail alike; keep
		// the fuzzer's memory small by clamping such headers to the
		// stream's length. Headers past maxFrame stay: both readers reject
		// them before allocating.
		data = bytes.Clone(data)
		for off := 0; off+frameHeader <= len(data); {
			size := binary.BigEndian.Uint32(data[off:])
			if size > maxFrame {
				break
			}
			if int(size) > len(data) {
				size = uint32(len(data))
				binary.BigEndian.PutUint32(data[off:], size)
			}
			off += frameHeader + int(size)
		}
		ref := &chunkConn{stream: data, chunks: chunks}
		want, wantErr := readAll(func() ([]byte, error) { return readFrame(ref, time.Time{}) })
		conn := &chunkConn{stream: data, chunks: chunks}
		br := newConnReader(conn)
		var buf []byte
		got, gotErr := readAll(func() (frame []byte, err error) {
			buf, err = readFrameInto(conn, br, time.Time{}, buf[:0])
			return buf, err
		})
		if len(got) != len(want) {
			t.Fatalf("buffered reader yields %d frames, the unbuffered loop %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs: %x != %x", i, got[i], want[i])
			}
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || errors.Is(gotErr, ErrFrameTooLarge) != errors.Is(wantErr, ErrFrameTooLarge) {
			t.Fatalf("buffered reader stops with %v, the unbuffered loop with %v", gotErr, wantErr)
		}
	})
}
