package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/validate"
	"proxcensus/internal/wire"
)

// muxPair starts a hub and n connected nodes with cleanup registered.
// Like RunLocal, it screens with validate.General when cfg sets no
// NewIngress.
func muxPair(t *testing.T, n int, cfg Config) (*MuxHub, []*MuxNode) {
	t.Helper()
	if cfg.NewIngress == nil {
		cfg.NewIngress = func(int) *validate.Validator { return validate.New(validate.General(n)) }
	}
	hub, err := NewMuxHub(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	nodes := make([]*MuxNode, n)
	for i := 0; i < n; i++ {
		nd, err := NewMuxNode(hub.Addr(), i, cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = nd
		t.Cleanup(func() { _ = nd.Close() })
	}
	if err := hub.AwaitNodes(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return hub, nodes
}

// runMuxInstance drives one instance across all nodes and returns the
// per-node outputs.
func runMuxInstance(t *testing.T, hub *MuxHub, nodes []*MuxNode, inst, rounds int, machines []sim.Machine) ([]any, []error) {
	t.Helper()
	hi, err := hub.StartInstance(inst, rounds)
	if err != nil {
		t.Fatalf("instance %d: %v", inst, err)
	}
	hubDone := make(chan error, 1)
	go func() { hubDone <- hi.Run() }()
	outs := make([]any, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *MuxNode) {
			defer wg.Done()
			outs[i], errs[i] = nd.RunInstance(inst, rounds, machines[i])
		}(i, nd)
	}
	wg.Wait()
	if err := <-hubDone; err != nil {
		t.Fatalf("instance %d hub: %v", inst, err)
	}
	return outs, errs
}

func expandWant(rounds int) proxcensus.Result {
	return proxcensus.Result{Value: 1, Grade: proxcensus.MaxGrade(proxcensus.ExpandSlots(rounds))}
}

// TestMuxSingleInstance: one instance over hand-wired hub and nodes
// produces the outputs RunLocal does.
func TestMuxSingleInstance(t *testing.T) {
	const n, tc, rounds = 4, 1, 3
	hub, nodes := muxPair(t, n, quickConfig())
	machines := make([]sim.Machine, n)
	for i := range machines {
		machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, 1)
	}
	outs, errs := runMuxInstance(t, hub, nodes, 1, rounds, machines)
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		if outs[i].(proxcensus.Result) != expandWant(rounds) {
			t.Errorf("node %d: %v, want %v", i, outs[i], expandWant(rounds))
		}
	}
	if hi := hub.Report(); hi.Count(EventDial) != n {
		t.Errorf("hub saw %d dials, want %d", hub.Report().Count(EventDial), n)
	}
}

// TestMuxConcurrentInstances: 64 concurrent instances share the same n
// TCP connections and all decide correctly — the acceptance bar for
// the multi-instance service transport.
func TestMuxConcurrentInstances(t *testing.T) {
	const n, tc, rounds, instances = 4, 1, 3, 64
	cfg := quickConfig()
	cfg.RoundTimeout = 2 * time.Second // 64 concurrent barriers on busy CI
	hub, nodes := muxPair(t, n, cfg)

	var wg sync.WaitGroup
	failures := make(chan string, instances*n)
	for inst := 1; inst <= instances; inst++ {
		machines := make([]sim.Machine, n)
		for i := range machines {
			machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, 1)
		}
		hi, err := hub.StartInstance(inst, rounds)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = hi.Run()
		}()
		for i, nd := range nodes {
			wg.Add(1)
			go func(inst, i int, nd *MuxNode, m sim.Machine) {
				defer wg.Done()
				out, err := nd.RunInstance(inst, rounds, m)
				if err != nil {
					failures <- err.Error()
					return
				}
				if out.(proxcensus.Result) != expandWant(rounds) {
					failures <- "wrong output"
				}
			}(inst, i, nd, machines[i])
		}
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Fatalf("instance failure: %s", f)
	}
}

// TestMuxSilentNodeDegrades: a node that holds a connection but never
// speaks is declared dead per instance at the round deadline; the
// others still decide (expand with n=4, t=1 tolerates one silent
// party).
func TestMuxSilentNodeDegrades(t *testing.T) {
	const n, tc, rounds = 4, 1, 2
	hub, nodes := muxPair(t, n, quickConfig())
	machines := make([]sim.Machine, n)
	for i := range machines {
		machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, 1)
	}
	hi, err := hub.StartInstance(1, rounds)
	if err != nil {
		t.Fatal(err)
	}
	hubDone := make(chan error, 1)
	go func() { hubDone <- hi.Run() }()
	var wg sync.WaitGroup
	outs := make([]any, n)
	errs := make([]error, n)
	for i := 1; i < n; i++ { // node 0 stays silent
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = nodes[i].RunInstance(1, rounds, machines[i])
		}(i)
	}
	wg.Wait()
	if err := <-hubDone; err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
	}
	rep := hi.Report()
	if !rep.Dead[0] || rep.Deaths() != 1 {
		t.Errorf("instance report deaths = %d (dead[0]=%v), want exactly node 0 dead", rep.Deaths(), rep.Dead[0])
	}
}

// TestMuxVersionMismatch: a legacy (v1) hello and a v2 hello — the mux
// framing before back-referenced payloads — are rejected at admission
// with the negotiation error naming the versions.
func TestMuxVersionMismatch(t *testing.T) {
	v2 := wire.EncodeHello(0, 0)
	v2[len(v2)-1] = 2
	for _, tc := range []struct {
		name, peer string
		hello      []byte
	}{
		{"legacy hello at mux hub", "v1", make([]byte, 16)}, // id 0, resume 0, no version byte
		{"v2 hello at mux hub", "v2", v2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub := rawHub(t, 2)
			conn, err := net.Dial("tcp", hub.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			if err := writeFrame(conn, framed(tc.hello), time.Now().Add(time.Second)); err != nil {
				t.Fatal(err)
			}
			if !closedByHub(t, conn) {
				t.Fatalf("%s hello left open", tc.peer)
			}
			for _, e := range hub.Report().Events {
				if e.Kind == EventReject && strings.Contains(e.Detail, "version mismatch") &&
					strings.Contains(e.Detail, "peer announced "+tc.peer) {
					return
				}
			}
			t.Fatalf("no version-mismatch reject naming %s logged; events: %+v", tc.peer, hub.Report().Events)
		})
	}
}

// TestMuxUnknownInstanceDropped: frames tagged with an unregistered
// instance are dropped and logged without disturbing live instances on
// the same connection.
func TestMuxUnknownInstanceDropped(t *testing.T) {
	const n, tc, rounds = 4, 1, 2
	hub, nodes := muxPair(t, n, quickConfig())

	// Node 0 sends an empty round for instance 999, which nothing
	// registered, through its one write path.
	if err := (&instanceRun{node: nodes[0], inst: 999}).sendRound(1, nil); err != nil {
		t.Fatal(err)
	}

	machines := make([]sim.Machine, n)
	for i := range machines {
		machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, 1)
	}
	outs, errs := runMuxInstance(t, hub, nodes, 7, rounds, machines)
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for hub.Report().Count(EventStale) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stray frame never logged as stale")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMuxIngressScreening: per-instance validators from
// Config.NewIngress screen mux deliveries, and their reports merge into
// the node's Report across instances.
func TestMuxIngressScreening(t *testing.T) {
	const n, tc, rounds = 4, 1, 2
	cfg := quickConfig()
	cfg.NewIngress = func(id int) *validate.Validator {
		return validate.New(validate.General(n))
	}
	hub, nodes := muxPair(t, n, cfg)
	for inst := 1; inst <= 2; inst++ {
		machines := make([]sim.Machine, n)
		for i := range machines {
			machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, 1)
		}
		outs, errs := runMuxInstance(t, hub, nodes, inst, rounds, machines)
		for i := range outs {
			if errs[i] != nil {
				t.Fatalf("instance %d node %d: %v", inst, i, errs[i])
			}
		}
	}
	rep := nodes[0].Report()
	if rep.Validation == nil {
		t.Fatal("node report has no validation section")
	}
	if rep.Validation.Admitted == 0 {
		t.Error("merged validation admitted nothing")
	}
}

// TestMuxNodeRefusesUnscreenedInstance: a node configured without
// NewIngress cannot pick a screen (it does not know n), so it refuses
// to run an instance and says which field is missing.
func TestMuxNodeRefusesUnscreenedInstance(t *testing.T) {
	hub, err := NewMuxHub(1, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	nd, err := NewMuxNode(hub.Addr(), 0, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nd.Close() }()
	if out, err := nd.RunInstance(1, 1, sim.NewFunc(1)); err == nil || !strings.Contains(err.Error(), "NewIngress") {
		t.Fatalf("unscreened RunInstance = %v, %v; want an error naming NewIngress", out, err)
	}
}

// TestMergeReports: events concatenate, dead marks union, validation
// accumulates.
func TestMergeReports(t *testing.T) {
	a := Report{
		Events:       []Event{{Kind: EventDial, Node: 0}},
		Dead:         []bool{false, true},
		RoundLatency: []time.Duration{time.Millisecond},
	}
	vb := validate.Report{Admitted: 3}
	b := Report{
		Events:     []Event{{Kind: EventDeath, Node: 1}, {Kind: EventRound, Node: -1}},
		Dead:       []bool{true, false, false},
		Validation: &vb,
	}
	m := MergeReports(a, b)
	if len(m.Events) != 3 || len(m.RoundLatency) != 1 {
		t.Fatalf("merge shape: %+v", m)
	}
	if len(m.Dead) != 3 || !m.Dead[0] || !m.Dead[1] || m.Dead[2] {
		t.Fatalf("merged dead = %v", m.Dead)
	}
	if m.Validation == nil || m.Validation.Admitted != 3 {
		t.Fatalf("merged validation = %+v", m.Validation)
	}
}

// TestReportCountPastLogCap: Count is exact past the per-kind log cap,
// in a snapshot and summed across a merge, while Suppressed counts only
// the events missing from Events.
func TestReportCountPastLogCap(t *testing.T) {
	const retries = eventLogCap + 36
	l := newEventLog(0)
	for i := 0; i < retries; i++ {
		l.add(EventRetry, 0, 0, "")
	}
	l.add(EventDial, 0, 0, "")
	rep := l.snapshot()
	if rep.Count(EventRetry) != retries || rep.Count(EventDial) != 1 || rep.Count(EventFlood) != 0 {
		t.Fatalf("counts: retry=%d dial=%d flood=%d, want %d, 1, 0",
			rep.Count(EventRetry), rep.Count(EventDial), rep.Count(EventFlood), retries)
	}
	if len(rep.Events) != eventLogCap+1 || rep.Suppressed != retries-eventLogCap {
		t.Fatalf("log holds %d events with %d suppressed, want %d and %d",
			len(rep.Events), rep.Suppressed, eventLogCap+1, retries-eventLogCap)
	}
	if s := rep.Summary(); !strings.Contains(s, fmt.Sprintf("retries=%d ", retries)) {
		t.Fatalf("summary %q misreports the retries", s)
	}
	if m := MergeReports(rep, rep); m.Count(EventRetry) != 2*retries || m.Suppressed != 2*rep.Suppressed {
		t.Fatalf("merged: retry=%d suppressed=%d", m.Count(EventRetry), m.Suppressed)
	}
}

// TestMuxDupInstance: registering the same live instance twice fails on
// both ends.
func TestMuxDupInstance(t *testing.T) {
	hub, nodes := muxPair(t, 2, quickConfig())
	if _, err := hub.StartInstance(5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.StartInstance(5, 1); err == nil {
		t.Error("duplicate hub instance registered")
	}
	if _, err := nodes[0].register(5); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].register(5); err == nil {
		t.Error("duplicate node lane registered")
	}
}

// TestMuxBounceWithConcurrentInstances: node 1 drops its shared
// connection at round 2 of two instances running side by side. Lanes
// outlive the connection, so both instances finish and every other
// node decides; node 1 itself may lose a delivery that was in flight
// for the other instance — that is what a connection fault is.
func TestMuxBounceWithConcurrentInstances(t *testing.T) {
	const n, tc, rounds = 4, 1, 3
	cfg := quickConfig()
	cfg.Faults = &testInjector{drop: map[[2]int]bool{{1, 2}: true}}
	hub, nodes := muxPair(t, n, cfg)
	var wg sync.WaitGroup
	for inst := 1; inst <= 2; inst++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs, errs := runMuxInstance(t, hub, nodes, inst, rounds, expandMachines(n, tc, rounds, 1))
			for i := range outs {
				if i == 1 {
					continue
				}
				if errs[i] != nil || outs[i].(proxcensus.Result) != expandWant(rounds) {
					t.Errorf("instance %d node %d: %v (%v), want %v", inst, i, outs[i], errs[i], expandWant(rounds))
				}
			}
		}()
	}
	wg.Wait()
	if hub.Report().Count(EventReconnect) == 0 || nodes[1].Report().Count(EventReconnect) == 0 {
		t.Error("expected the bounce to surface as a reconnect on both ends")
	}
}

// TestMuxNodeRedialsLostConnection: when the shared connection dies
// under a node (here the hub drops it), the node's reader redials with
// a resume hello, the hub installs the replacement in the dead slot,
// and instances run as if nothing happened.
func TestMuxNodeRedialsLostConnection(t *testing.T) {
	const n, tc, rounds = 4, 1, 2
	hub, nodes := muxPair(t, n, quickConfig())
	hub.mu.Lock()
	lost := hub.conns[0]
	hub.mu.Unlock()
	hub.connLost(0, lost, "test: dropped")
	if err := hub.AwaitNodes(2 * time.Second); err != nil {
		t.Fatalf("node 0 never came back: %v", err)
	}
	outs, errs := runMuxInstance(t, hub, nodes, 1, rounds, expandMachines(n, tc, rounds, 1))
	for i := range outs {
		if errs[i] != nil || outs[i].(proxcensus.Result) != expandWant(rounds) {
			t.Errorf("node %d: %v (%v), want %v", i, outs[i], errs[i], expandWant(rounds))
		}
	}
	if got := hub.Report().Count(EventReconnect); got != 1 {
		t.Errorf("hub reconnects = %d, want 1\nlog: %v", got, hub.Report().Events)
	}
	if rep := nodes[0].Report(); rep.Count(EventConnLost) != 1 || rep.Count(EventReconnect) != 1 {
		t.Errorf("node 0 log misses the redial: %v", rep.Events)
	}
}

// TestMuxChurnRejoins: a node churning over rounds (2,4) is dead to the
// hub from round 2, rejoins at round 4 exactly, and still produces an
// output; nobody else notices more than its silence.
func TestMuxChurnRejoins(t *testing.T) {
	const n, tc, rounds = 4, 1, 5
	cfg := quickConfig()
	cfg.Faults = &testInjector{churn: map[int][2]int{2: {2, 4}}}
	res, err := RunLocal(expandMachines(n, tc, rounds, 1), rounds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if res.Errs[i] != nil || res.Outputs[i] == nil {
			t.Fatalf("node %d: output %v, err %v", i, res.Outputs[i], res.Errs[i])
		}
	}
	if got := res.Hub.Count(EventRejoin); got != 1 || res.Hub.Deaths() != 0 {
		t.Errorf("rejoins=%d deaths=%d, want 1/0\nlog: %v", got, res.Hub.Deaths(), res.Hub.Events)
	}
	if res.Nodes[2].Count(EventChurn) != 1 || res.Nodes[2].Count(EventReconnect) != 1 {
		t.Errorf("node 2 log misses the churn bounce: %v", res.Nodes[2].Events)
	}
}

// TestMuxFloodLogBounded: a peer spraying a live instance with 400
// over-cap frames — each truncated, all but the first few overflowing
// its lane — and 400 strays for an unknown instance grows no log past
// the per-kind cap; the surplus is counted, not recorded.
func TestMuxFloodLogBounded(t *testing.T) {
	const frames = 400
	cfg := quickConfig()
	hub, err := NewMuxHub(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	if _, err := hub.StartInstance(LocalInstance, 1); err != nil {
		t.Fatal(err)
	}
	c, err := DialRaw(hub.Addr(), 0, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	batch := make([]wire.BatchMsg, DefaultFloodLimit+1)
	for _, c.Instance = range []int{LocalInstance, 999} {
		for i := 0; i < frames; i++ {
			if err := c.SendBatch(1, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := hub.Report()
		seen := rep.Count(EventFlood) + rep.Count(EventStale)
		if len(rep.Events) > 2*eventLogCap+1 {
			t.Fatalf("hub log grew to %d entries", len(rep.Events))
		}
		if seen == 4*frames-muxMailDepth { // a truncation per frame, plus an overflow or a stray
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("hub accounted for %d of %d floods and strays", seen, 4*frames-muxMailDepth)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMuxIdleLogBounded: an idle pair whose connections time out and
// redial every few milliseconds logs a conn-lost and a reconnect per
// cycle on both ends, forever. Every kind stops at eventLogCap entries
// and the rest is counted as suppressed, so an idle daemon's logs stay
// bounded.
func TestMuxIdleLogBounded(t *testing.T) {
	cfg := quickConfig()
	cfg.IdleTimeout = 10 * time.Millisecond
	hub, nodes := muxPair(t, 2, cfg)
	reports := func() []Report {
		return []Report{hub.Report(), nodes[0].Report(), nodes[1].Report()}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		suppressed := 0
		for i, rep := range reports() {
			counts := make(map[EventKind]int)
			for _, e := range rep.Events {
				if counts[e.Kind]++; counts[e.Kind] > eventLogCap {
					t.Fatalf("log %d holds over %d %s events", i, eventLogCap, e.Kind)
				}
			}
			if rep.Suppressed > 0 {
				suppressed++
			}
		}
		if suppressed == 3 {
			return
		}
		if time.Now().After(deadline) {
			rep := hub.Report()
			t.Fatalf("only %d of 3 logs suppressed anything; hub: %d events, %s", suppressed, len(rep.Events), rep.Summary())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHubDeliversInSenderOrder: every delivery batch lists its senders
// in ascending order and each sender's entries in the order it sent
// them — the order the simulator's engine builds its inboxes in
// (DESIGN §9, inbox routing), so a machine sees the same inbox over TCP
// as in the simulator — and
// holds exactly what routing owes its recipient, whether the hub
// encodes a frame per recipient or one for all of them. Raw peers send
// in descending ID order, so the hub's routing, not arrival, sets the
// order. Round 1 mixes unicasts and broadcasts; later rounds broadcast
// only, which lets the hub encode once. Every sender sends some
// payloads byte-equal to other senders', which a delivery carries once
// and the parse resolves to one blob. Round 3 cuts the link between
// nodes 0 and 1; node 3 stays silent from round 4, so the hub declares
// it dead and delivers to it no more.
func TestHubDeliversInSenderOrder(t *testing.T) {
	const n, rounds, cutRound, silent, silentFrom = 4, 5, 3, 3, 4
	cut := func(from, to, round int) bool { return round == cutRound && from != to && from+to == 1 }
	cfg := quickConfig()
	cfg.Faults = &testInjector{part: cut}
	hub, err := NewMuxHub(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	clients := make([]*RawClient, n)
	for id := range clients {
		c, err := DialRaw(hub.Addr(), id, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		clients[id] = c
	}
	report := serve(t, hub, rounds)
	live := func(id, round int) bool { return id != silent || round < silentFrom }
	// Entry k of sender from's round batch carries {round, from, k},
	// except its first and last two, which carry {round, 0xEE} from every
	// sender. In round 1 a third of the entries are broadcasts and the
	// rest unicasts around the ring.
	batch := func(round, from int) []wire.BatchMsg {
		msgs := make([]wire.BatchMsg, 2*n)
		for k := range msgs {
			to := sim.Broadcast
			if round == 1 && (from+k)%3 != 0 {
				to = (from + k) % n
			}
			payload := []byte{byte(round), byte(from), byte(k)}
			if k == 0 || k >= len(msgs)-2 {
				payload = []byte{byte(round), 0xEE}
			}
			msgs[k] = wire.BatchMsg{Addr: to, Payload: payload}
		}
		return msgs
	}
	for round := 1; round <= rounds; round++ {
		for from := n - 1; from >= 0; from-- {
			if !live(from, round) {
				continue
			}
			if err := clients[from].SendBatch(round, batch(round, from)); err != nil {
				t.Fatal(err)
			}
		}
		for to, c := range clients {
			if !live(to, round) {
				continue
			}
			got, msgs, err := c.Recv()
			if err != nil || got != round {
				t.Fatalf("node %d: delivery round %d (%v), want %d", to, got, err, round)
			}
			var want []wire.BatchMsg
			for from := 0; from < n; from++ {
				if !live(from, round) || cut(from, to, round) {
					continue
				}
				for _, m := range batch(round, from) {
					if m.Addr == to || m.Addr == sim.Broadcast {
						want = append(want, wire.BatchMsg{Addr: from, Payload: m.Payload})
					}
				}
			}
			if len(msgs) != len(want) {
				t.Fatalf("round %d node %d: %d entries delivered, want %d", round, to, len(msgs), len(want))
			}
			for i := range want {
				if msgs[i].Addr != want[i].Addr || string(msgs[i].Payload) != string(want[i].Payload) {
					t.Fatalf("round %d node %d: entry %d is sender %d entry %v, want sender %d entry %v",
						round, to, i, msgs[i].Addr, msgs[i].Payload, want[i].Addr, want[i].Payload)
				}
				if i > 0 && string(want[i].Payload) == string(want[i-1].Payload) &&
					&msgs[i].Payload[0] != &msgs[i-1].Payload[0] {
					t.Fatalf("round %d node %d: entry %d repeats entry %d's bytes but was delivered again", round, to, i, i-1)
				}
			}
		}
	}
	rep := report()
	if rep.Deaths() != 1 || !rep.Dead[silent] {
		t.Fatalf("deaths = %d (dead[%d]=%v), want exactly the silent node\nlog: %v", rep.Deaths(), silent, rep.Dead[silent], rep.Events)
	}
	if rep.Count(EventPartition) != 1 {
		t.Fatalf("%d partition events, want 1 for round %d\nlog: %v", rep.Count(EventPartition), cutRound, rep.Events)
	}
}

// TestHubEncodeOnceWarmAllocations pins the hub's delivery encoding. In
// a broadcast-only round every live recipient's inbox is the same
// senders' same payload slices, so one frame serves them all; a dead
// recipient gets none, and a recipient whose inbox a partition trimmed
// gets a frame of its own, which ends the run — the recipient after it
// is encoded afresh even though its inbox matches an earlier one. Each
// frame decodes to its recipient's inbox and is what its connection
// receives, and once the buffers have grown a round's encoding and
// delivery — queueing, flushing and answering every frame — allocate
// nothing.
func TestHubEncodeOnceWarmAllocations(t *testing.T) {
	const n, size, dead, trimmed = 16, 16 << 10, 5, 9
	blobs := make([][]byte, n)
	for i := range blobs {
		blobs[i] = bytes.Repeat([]byte{byte(i % 3)}, size) // senders 0, 3, 6, … send alike
	}
	conns := make([]net.Conn, n)
	for id := range conns {
		conns[id] = &frameLoopConn{}
	}
	_, hi := deliveryHub(n, conns...)
	hi.id = 7
	route := func(to int, skip int) {
		hi.inboxes[to] = hi.inboxes[to][:0]
		for from, b := range blobs {
			if from != skip {
				hi.inboxes[to] = append(hi.inboxes[to], wire.BatchMsg{Addr: from, Payload: b})
			}
		}
	}
	for _, tc := range []struct {
		name    string
		degrade bool
		frames  int // distinct encodings
	}{
		{"broadcast round", false, 1},
		{"a dead and a partitioned recipient", true, 3},
	} {
		for to := range hi.inboxes {
			route(to, -1)
		}
		if tc.degrade {
			hi.dead[dead] = true
			route(trimmed, 0)
		}
		round := func() {
			hi.encodeDeliveries(2)
			hi.deliver(2, time.Now().Add(time.Minute))
		}
		round() // grows the buffers
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Errorf("%s: warm delivery encoding and writing allocates %.1f objects; want 0", tc.name, allocs)
		}
		distinct := map[*byte]bool{}
		for to, frame := range hi.deliveries {
			if hi.dead[to] {
				if frame != nil {
					t.Fatalf("%s: dead recipient %d has a delivery", tc.name, to)
				}
				continue
			}
			distinct[&frame[0]] = true
			if got := conns[to].(*frameLoopConn).wrote; !bytes.Equal(got, frame) {
				t.Fatalf("%s: recipient %d's connection got %d bytes, not its %d-byte delivery", tc.name, to, len(got), len(frame))
			}
			if size := binary.BigEndian.Uint32(frame); int(size) != len(frame)-frameHeader {
				t.Fatalf("%s: recipient %d: length prefix %d on a %d-byte body", tc.name, to, size, len(frame)-frameHeader)
			}
			inst, round, got, err := wire.DecodeTaggedBatch(frame[frameHeader:])
			if err != nil || inst != 7 || round != 2 || len(got) != len(hi.inboxes[to]) {
				t.Fatalf("%s: recipient %d: instance %d round %d, %d entries, err %v", tc.name, to, inst, round, len(got), err)
			}
			for i, m := range hi.inboxes[to] {
				if got[i].Addr != m.Addr || !bytes.Equal(got[i].Payload, m.Payload) {
					t.Fatalf("%s: recipient %d entry %d differs from its inbox", tc.name, to, i)
				}
			}
		}
		if len(distinct) != tc.frames {
			t.Errorf("%s: %d distinct delivery frames, want %d", tc.name, len(distinct), tc.frames)
		}
	}
}
