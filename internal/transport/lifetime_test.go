package transport

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"proxcensus/internal/ba"
	"proxcensus/internal/sim"
	"proxcensus/internal/validate"
	"proxcensus/internal/wire"
)

// TestMain runs every test of the package with released frames
// poisoned: a batch entry, routed inbox or decoded payload blob read
// after its frame went back to the free list is 0xDB garbage, so the
// fault, churn, flood and differential tests all double as lifetime
// tests.
func TestMain(m *testing.M) {
	SetFramePoison(true)
	os.Exit(m.Run())
}

// TestFrameList: the free list recycles, leaks rather than blocks or
// grows, refuses what outgrew the keep cap, poisons on release and
// trips on a second release.
func TestFrameList(t *testing.T) {
	l := make(frameList, frameListLen)
	f := l.get()
	if f == nil || f.released || len(l) != 0 {
		t.Fatalf("empty list must hand out a fresh frame: %+v", f)
	}
	f.buf = append(f.buf, "live bytes"...)
	held := f.buf
	l.put(f)
	if !bytes.Equal(held, bytes.Repeat([]byte{0xDB}, len(held))) {
		t.Errorf("release left %q readable", held)
	}
	if got := l.get(); got != f || got.released {
		t.Errorf("released frame not recycled: %p released=%t, want %p", got, got.released, f)
	}

	for i := 0; i < frameListLen+3; i++ {
		l.put(new(frame))
	}
	if len(l) != frameListLen {
		t.Errorf("list holds %d frames, bound is %d", len(l), frameListLen)
	}

	l = make(frameList, frameListLen)
	l.put(&frame{buf: make([]byte, frameKeepMax+1)})
	if len(l) != 0 {
		t.Error("a frame past the keep cap went back on the list")
	}
	l.put(&frame{buf: make([]byte, frameKeepMax)})
	if len(l) != 1 {
		t.Error("a frame at the keep cap was dropped")
	}

	defer func() {
		if recover() == nil {
			t.Error("second release of one frame did not panic")
		}
	}()
	l.put(f)
	l.put(f)
}

// TestPoisonedFramesPayloadMatchesSim: with every released frame
// overwritten, payload BA over TCP on differing inputs — a quorum
// value, a minority value, an empty payload — decides byte for byte
// what the same setup decides in the simulator. The decoded blobs
// alias their frame, so a frame released before the machine has stepped
// (scripts/lint_mutation.sh moves the release to prove it) would feed
// it 0xDB and break this equality. The minority value is as long as the
// quorum value and party 0 sends it, so every relayed round-1 frame
// carries it just ahead of the quorum's first copy: a codec that took
// equal lengths for equal bytes (mutation 10) would hand the quorum's
// senders party 0's bytes.
func TestPoisonedFramesPayloadMatchesSim(t *testing.T) {
	const n, tc, kappa = 7, 2, 2
	quorumValue := bytes.Repeat([]byte{0x51}, 16<<10)
	minority := bytes.Repeat([]byte{0x4D}, len(quorumValue))
	inputs := [][]byte{minority, quorumValue, quorumValue, quorumValue, nil, quorumValue, quorumValue}
	build := func() *ba.Protocol {
		setup, err := ba.NewSetup(n, tc, ba.CoinThreshold, 41)
		if err != nil {
			t.Fatal(err)
		}
		proto, err := ba.NewMultivaluedPayloadOneShot(setup, kappa, inputs, []byte("default"))
		if err != nil {
			t.Fatal(err)
		}
		return proto
	}
	simRes, err := build().Run(sim.Passive{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ba.PayloadDecisions(simRes)
	if len(want) != n || !bytes.Equal(want[0], quorumValue) {
		t.Fatalf("simulator: %d decisions, first %d bytes; want %d deciding the quorum value", len(want), len(want[0]), n)
	}

	cfg := quickConfig()
	cfg.NewIngress = func(int) *validate.Validator {
		return validate.New(validate.ForPayloadService(n, len(quorumValue)))
	}
	proto := build()
	res, err := RunLocal(proto.Machines, proto.Rounds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		if res.Errs[i] != nil {
			t.Fatalf("node %d: %v", i, res.Errs[i])
		}
		if got, ok := out.([]byte); !ok || !bytes.Equal(got, want[i]) {
			t.Errorf("node %d decided %d bytes over TCP (%.8x…), the simulator %d", i, len(got), got, len(want[i]))
		}
	}
	if v := res.Nodes[0].Validation; v == nil || v.TotalRejected() != 0 {
		t.Errorf("ingress screen: %+v, want everything admitted", v)
	}
}

// TestConcurrentPayloadInstancesShareWriteBuffers: twelve payload
// instances run at once over one hub and four nodes, each proposing a
// 16 KiB payload of its own, so every node encodes all twelve
// instances' rounds through its one payload arena and queues them on
// its one outbox, where they share writes, interleaved as the scheduler
// pleases, while released receive frames are poisoned. Every node must
// decide each instance's own bytes: a send buffer reused before its
// frame was written, or a payload read from a frame after its release,
// shows up as another instance's bytes or 0xDB.
func TestConcurrentPayloadInstancesShareWriteBuffers(t *testing.T) {
	const n, tc, kappa, instances, size = 4, 1, 2, 12, 16 << 10
	cfg := quickConfig()
	cfg.RoundTimeout = 2 * time.Second // twelve concurrent barriers on busy CI
	cfg.NewIngress = func(int) *validate.Validator {
		return validate.New(validate.ForPayloadService(n, size))
	}
	hub, nodes := muxPair(t, n, cfg)
	setup, err := ba.NewSetup(n, tc, ba.CoinThreshold, 5)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	failures := make(chan string, instances*(n+1))
	for inst := 1; inst <= instances; inst++ {
		value := make([]byte, size)
		for j := range value {
			value[j] = byte(inst*37 + j*11)
		}
		inputs := make([][]byte, n)
		for i := range inputs {
			inputs[i] = value
		}
		proto, err := ba.NewMultivaluedPayloadOneShot(setup, kappa, inputs, []byte("default"))
		if err != nil {
			t.Fatal(err)
		}
		hi, err := hub.StartInstance(inst, proto.Rounds)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := hi.Run(); err != nil {
				failures <- fmt.Sprintf("instance %d hub: %v", inst, err)
			}
		}()
		for i, nd := range nodes {
			wg.Add(1)
			go func(i int, nd *MuxNode, m sim.Machine) {
				defer wg.Done()
				out, err := nd.RunInstance(inst, proto.Rounds, m)
				if err != nil {
					failures <- err.Error()
					return
				}
				if got, _ := out.([]byte); !bytes.Equal(got, value) {
					failures <- fmt.Sprintf("instance %d node %d decided %d bytes (%.8x…), not its own %d", inst, i, len(got), got, len(value))
				}
			}(i, nd, proto.Machines[i])
		}
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
}

// TestMuxFloodFrameLifetimes is TestMuxFloodLogBounded's flood read
// for its frames: a peer spraying a live instance (over-cap frames,
// all but the first few overflowing the lane), a finished instance
// (strays) and one frame past the keep cap makes the hub release at
// every drop site. Any double release panics the reader; afterwards the
// free list is within its bounds, holds each frame once, and shares
// none with the lane.
func TestMuxFloodFrameLifetimes(t *testing.T) {
	const frames, finished = 200, 5
	cfg := quickConfig()
	hub, err := NewMuxHub(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	live, err := hub.StartInstance(LocalInstance, 1)
	if err != nil {
		t.Fatal(err)
	}
	done, err := hub.StartInstance(finished, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := done.Run(); err != nil {
		t.Fatal(err)
	}
	c, err := DialRaw(hub.Addr(), 0, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	batch := make([]wire.BatchMsg, DefaultFloodLimit+1)
	for i := range batch {
		batch[i] = wire.BatchMsg{Addr: 0, Payload: []byte("over the cap")}
	}
	batch[0].Payload = []byte("first")
	for _, c.Instance = range []int{LocalInstance, finished} {
		for i := 0; i < frames; i++ {
			if err := c.SendBatch(1, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.SendBatch(1, []wire.BatchMsg{{Addr: 0, Payload: make([]byte, frameKeepMax+1)}}); err != nil {
		t.Fatal(err)
	}
	// A truncation per frame, plus a lane overflow or a stray; the lane
	// keeps its first muxMailDepth frames and the oversized frame is one
	// more stray.
	want := 4*frames - muxMailDepth + 1
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := hub.Report()
		if seen := rep.Count(EventFlood) + rep.Count(EventStale); seen == want {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("hub accounted for %d of %d floods and strays", seen, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = c.Close()
	_ = hub.Close() // the reader has exited: nothing touches the list or the lane any more

	held := make(map[*frame]bool)
	if len(live.mail[0]) != muxMailDepth {
		t.Errorf("lane holds %d frames, want %d", len(live.mail[0]), muxMailDepth)
	}
	for len(live.mail[0]) > 0 {
		f := (<-live.mail[0]).frame
		if f.released || held[f] || string(f.msgs[0].Payload) != "first" {
			t.Errorf("lane frame %p: released=%t twice=%t payload=%q", f, f.released, held[f], f.msgs[0].Payload)
		}
		held[f] = true
	}
	if len(hub.frames) == 0 || len(hub.frames) > frameListLen {
		t.Errorf("free list holds %d frames, want 1..%d", len(hub.frames), frameListLen)
	}
	for len(hub.frames) > 0 {
		f := <-hub.frames
		if !f.released || held[f] || cap(f.buf) > frameKeepMax {
			t.Errorf("listed frame %p: released=%t twice=%t cap=%d", f, f.released, held[f], cap(f.buf))
		}
		held[f] = true
	}
}
