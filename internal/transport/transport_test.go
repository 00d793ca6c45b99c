package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"proxcensus/internal/ba"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/wire"
)

// quickConfig keeps fault-path tests fast: short deadlines. Localhost
// rounds run in microseconds, so 400ms is still a generous margin.
func quickConfig() Config {
	return Config{
		RoundTimeout: 400 * time.Millisecond,
		JoinTimeout:  time.Second,
	}
}

// runLocalOK runs a fault-free execution under DefaultConfig and
// returns the outputs by party ID; any node failure is fatal.
func runLocalOK(t *testing.T, machines []sim.Machine, rounds int) []any {
	t.Helper()
	res, err := RunLocal(machines, rounds, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.Errs {
		if e != nil {
			t.Fatalf("node %d: %v", i, e)
		}
	}
	return res.Outputs
}

func TestRunLocalExpandProxcensus(t *testing.T) {
	const n, tc, rounds = 4, 1, 3
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, 1)
	}
	outputs := runLocalOK(t, machines, rounds)
	want := proxcensus.Result{Value: 1, Grade: proxcensus.MaxGrade(proxcensus.ExpandSlots(rounds))}
	for i, out := range outputs {
		if out.(proxcensus.Result) != want {
			t.Errorf("node %d: %v, want %v", i, out, want)
		}
	}
}

func TestRunLocalOneShotBA(t *testing.T) {
	const n, tc, kappa = 4, 1, 6
	setup, err := ba.NewSetup(n, tc, ba.CoinThreshold, 5)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := ba.NewOneShot(setup, kappa, []ba.Value{1, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	outputs := runLocalOK(t, proto.Machines, proto.Rounds)
	first := outputs[0].(ba.Value)
	for i, out := range outputs {
		if out.(ba.Value) != first {
			t.Errorf("node %d decided %v, node 0 decided %v", i, out, first)
		}
	}
}

func TestRunLocalHalfBAAgainstSimulator(t *testing.T) {
	// The same machines must produce the same decisions over TCP as in
	// the lock-step simulator (they are deterministic given the setup).
	const n, tc, kappa = 5, 2, 4
	inputs := []ba.Value{1, 1, 1, 1, 1}

	setupA, err := ba.NewSetup(n, tc, ba.CoinThreshold, 77)
	if err != nil {
		t.Fatal(err)
	}
	protoA, err := ba.NewHalf(setupA, kappa, inputs)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := protoA.Run(sim.Passive{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	simDecisions := ba.Decisions(simRes)

	setupB, err := ba.NewSetup(n, tc, ba.CoinThreshold, 77)
	if err != nil {
		t.Fatal(err)
	}
	protoB, err := ba.NewHalf(setupB, kappa, inputs)
	if err != nil {
		t.Fatal(err)
	}
	outputs := runLocalOK(t, protoB.Machines, protoB.Rounds)
	for i, out := range outputs {
		if out.(ba.Value) != simDecisions[i] {
			t.Errorf("node %d: TCP decided %v, simulator decided %v", i, out, simDecisions[i])
		}
	}
}

func TestHubValidation(t *testing.T) {
	if _, err := NewMuxHub(0, quickConfig()); err == nil {
		t.Error("n=0 must fail")
	}
	hub, err := NewMuxHub(3, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	if _, err := hub.StartInstance(LocalInstance, -1); err == nil {
		t.Error("negative rounds must fail")
	}
}

func TestNodeBadHubAddress(t *testing.T) {
	if _, err := NewMuxNode("127.0.0.1:1", 0, quickConfig()); err == nil {
		t.Error("dialing a dead address must fail")
	}
	log := newEventLog(0)
	if _, err := dial("127.0.0.1:1", 0, 0, quickConfig().withDefaults(), log, nil); err == nil {
		t.Error("dialing a dead address must fail")
	}
	if got := log.snapshot().Count(EventRetry); got != 3 {
		t.Errorf("retry events = %d, want 3 (4 attempts)", got)
	}
}

func TestNextBackoffCaps(t *testing.T) {
	got := []time.Duration{}
	b := 10 * time.Millisecond
	for i := 0; i < 5; i++ {
		b = nextBackoff(b, 50*time.Millisecond)
		got = append(got, b)
	}
	want := []time.Duration{20 * time.Millisecond, 40 * time.Millisecond,
		50 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("backoff sequence = %v, want %v", got, want)
		}
	}
}

func TestRunLocalZeroRounds(t *testing.T) {
	machines := []sim.Machine{sim.NewFunc(1), sim.NewFunc(2)}
	outputs := runLocalOK(t, machines, 0)
	if outputs[0].(int) != 1 || outputs[1].(int) != 2 {
		t.Errorf("outputs = %v", outputs)
	}
}

// rawDial connects to a hub and performs a hello by hand.
func rawDial(t *testing.T, addr string, id, resume int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello := framed(wire.EncodeHello(id, resume))
	if err := writeFrame(conn, hello, time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// sendEmptyRound writes an empty round-tagged batch by hand.
func sendEmptyRound(t *testing.T, conn net.Conn, round int) {
	t.Helper()
	frame, err := wire.AppendEncodeTaggedBatch(nil, LocalInstance, round, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, framed(frame), time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
}

// readRoundFrame reads one delivery frame by hand.
func readRoundFrame(t *testing.T, conn net.Conn) int {
	t.Helper()
	frame, err := readFrame(conn, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	_, round, _, err := wire.DecodeTaggedBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	return round
}

// closedByHub reports whether the hub closed c (EOF) rather than
// leaving it idle (the read deadline expires: the hub sends nothing
// before a round batch arrives).
func closedByHub(t *testing.T, c net.Conn) bool {
	t.Helper()
	if err := c.SetReadDeadline(time.Now().Add(300 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Read(make([]byte, 1))
	return err == io.EOF
}

// rawHub starts a hub for n hand-driven connections.
func rawHub(t *testing.T, n int) *MuxHub {
	t.Helper()
	hub, err := NewMuxHub(n, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	return hub
}

// serve runs the local instance on a hub whose peers have dialed and
// returns a wait for the report RunLocal would build.
func serve(t *testing.T, hub *MuxHub, rounds int) func() Report {
	t.Helper()
	_ = hub.AwaitNodes(time.Second) // absentees are dead from round 1
	hi, err := hub.StartInstance(LocalInstance, rounds)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hi.Run() }()
	return func() Report {
		if err := <-done; err != nil {
			t.Fatalf("Run: %v", err)
		}
		return MergeReports(hub.Report(), hi.Report())
	}
}

func TestHubRejectsDuplicateHello(t *testing.T) {
	hub := rawHub(t, 1)
	// Two connections claiming the same ID: the hub must keep exactly
	// one and refuse the other without killing the execution. (Hellos
	// are admitted concurrently, so either may win the slot.)
	c1 := rawDial(t, hub.Addr(), 0, 0)
	defer func() { _ = c1.Close() }()
	c2 := rawDial(t, hub.Addr(), 0, 0)
	defer func() { _ = c2.Close() }()
	r1, r2 := closedByHub(t, c1), closedByHub(t, c2)
	if r1 == r2 {
		t.Fatalf("want exactly one rejected connection, got c1=%v c2=%v", r1, r2)
	}
	kept := c1
	if r1 {
		kept = c2
	}

	// The surviving connection completes the round normally.
	report := serve(t, hub, 1)
	sendEmptyRound(t, kept, 1)
	if r := readRoundFrame(t, kept); r != 1 {
		t.Errorf("delivery round = %d, want 1", r)
	}
	rep := report()
	if rep.Count(EventReject) != 1 {
		t.Errorf("reject events = %d, want 1\nlog: %v", rep.Count(EventReject), rep.Events)
	}
	if rep.Deaths() != 0 {
		t.Errorf("deaths = %d, want 0", rep.Deaths())
	}
}

// TestHubResumeHelloReplaces: a resume hello takes a live slot over and
// downs the connection it replaces; a second first-contact hello for
// the now-live replacement is still a duplicate.
func TestHubResumeHelloReplaces(t *testing.T) {
	hub := rawHub(t, 1)
	first := rawDial(t, hub.Addr(), 0, 0)
	defer func() { _ = first.Close() }()
	if err := hub.AwaitNodes(time.Second); err != nil {
		t.Fatal(err)
	}
	resumed := rawDial(t, hub.Addr(), 0, 3)
	defer func() { _ = resumed.Close() }()
	if !closedByHub(t, first) {
		t.Fatal("replaced connection left open")
	}
	dup := rawDial(t, hub.Addr(), 0, 0)
	defer func() { _ = dup.Close() }()
	if !closedByHub(t, dup) {
		t.Fatal("duplicate first-contact hello for a live node accepted")
	}
	report := serve(t, hub, 1)
	sendEmptyRound(t, resumed, 1)
	if r := readRoundFrame(t, resumed); r != 1 {
		t.Errorf("delivery round = %d, want 1", r)
	}
	rep := report()
	if rep.Count(EventReconnect) != 1 || rep.Count(EventReject) != 1 || rep.Deaths() != 0 {
		t.Errorf("reconnects=%d rejects=%d deaths=%d, want 1/1/0\nlog: %v",
			rep.Count(EventReconnect), rep.Count(EventReject), rep.Deaths(), rep.Events)
	}
}

func TestHubRejectsOutOfRangeHello(t *testing.T) {
	hub := rawHub(t, 1)
	bad := rawDial(t, hub.Addr(), 9, 0) // id 9 >= n
	defer func() { _ = bad.Close() }()
	if !closedByHub(t, bad) {
		t.Error("out-of-range hello left open")
	}

	good := rawDial(t, hub.Addr(), 0, 0)
	defer func() { _ = good.Close() }()
	report := serve(t, hub, 1)
	sendEmptyRound(t, good, 1)
	if r := readRoundFrame(t, good); r != 1 {
		t.Errorf("delivery round = %d, want 1", r)
	}
	if got := report().Count(EventReject); got != 1 {
		t.Errorf("reject events = %d, want 1", got)
	}
}

func TestHubMarksSilentNodeDeadAndFinishes(t *testing.T) {
	// Node 0 joins then goes silent; node 1 stays honest. The hub must
	// mark node 0 dead at its round deadline and keep the barrier
	// moving for the survivor — no hang, no fatal error.
	const rounds = 3
	hub := rawHub(t, 2)
	silent := rawDial(t, hub.Addr(), 0, 0)
	defer func() { _ = silent.Close() }()
	live := rawDial(t, hub.Addr(), 1, 0)
	defer func() { _ = live.Close() }()
	report := serve(t, hub, rounds)
	start := time.Now()
	for r := 1; r <= rounds; r++ {
		sendEmptyRound(t, live, r)
		if got := readRoundFrame(t, live); got != r {
			t.Fatalf("delivery round = %d, want %d", got, r)
		}
	}
	rep := report()
	elapsed := time.Since(start)

	if len(rep.Dead) != 2 || !rep.Dead[0] || rep.Dead[1] {
		t.Errorf("dead = %v, want node 0 only", rep.Dead)
	}
	if rep.Count(EventDeath) != 1 {
		t.Errorf("death events = %d, want 1", rep.Count(EventDeath))
	}
	if len(rep.RoundLatency) != rounds {
		t.Fatalf("round latencies = %d, want %d", len(rep.RoundLatency), rounds)
	}
	// Only the death round pays the deadline; later rounds skip the
	// dead slot entirely.
	if rep.RoundLatency[0] < 300*time.Millisecond {
		t.Errorf("death round latency %s, want >= the deadline wait", rep.RoundLatency[0])
	}
	if elapsed > 2*time.Second {
		t.Errorf("execution took %s: dead node must not stall every round", elapsed)
	}
}

func TestHubSurvivesOversizedFrame(t *testing.T) {
	hub := rawHub(t, 1)
	conn := rawDial(t, hub.Addr(), 0, 0)
	defer func() { _ = conn.Close() }()
	report := serve(t, hub, 1)
	// Announce an absurd frame size: the hub must drop the connection
	// and degrade, not crash.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	rep := report()
	if rep.Deaths() != 1 {
		t.Errorf("deaths = %d, want 1\nlog: %v", rep.Deaths(), rep.Events)
	}
	if rep.Count(EventConnLost) == 0 {
		t.Error("expected a conn-lost event for the oversized frame")
	}
	// The death found the connection down, so the slot is retired: a
	// later instance skips the node at once instead of waiting again.
	later, err := hub.StartInstance(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_ = later.Run()
	if d := later.Report().Deaths(); d != 1 || time.Since(start) > 200*time.Millisecond {
		t.Errorf("later instance: deaths=%d after %s, want 1 at once", d, time.Since(start))
	}
}

func TestServeClosesListenerAndConns(t *testing.T) {
	hub, nodes := muxPair(t, 2, quickConfig())
	machines := []sim.Machine{sim.NewFunc(1), sim.NewFunc(2)}
	if _, errs := runMuxInstance(t, hub, nodes, LocalInstance, 0, machines); errs[0] != nil || errs[1] != nil {
		t.Fatalf("zero-round instance: %v", errs)
	}
	// Close must release the listener and every node connection.
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if conn, err := net.DialTimeout("tcp", hub.Addr(), 250*time.Millisecond); err == nil {
		_ = conn.Close()
		t.Error("listener still accepting after Close")
	}
	if _, err := hub.StartInstance(1, 1); !errors.Is(err, ErrMuxClosed) {
		t.Errorf("StartInstance on a closed hub: %v, want ErrMuxClosed", err)
	}
	if err := hub.AwaitNodes(time.Second); !errors.Is(err, ErrMuxClosed) {
		t.Errorf("AwaitNodes on a closed hub: %v, want ErrMuxClosed", err)
	}
}

// garbageNode joins the hub correctly but sends undecodable payload
// bytes every round; honest nodes must tolerate wire-level garbage the
// way machines tolerate garbage payloads.
func garbageNode(addr string, id, rounds int) error {
	c, err := DialRaw(addr, id, 0, quickConfig())
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()
	for r := 1; r <= rounds; r++ {
		err := c.SendBatch(r, []wire.BatchMsg{
			{Addr: sim.Broadcast, Payload: []byte{0xde, 0xad, 0xbe, 0xef}},
			{Addr: 0, Payload: nil},
			{Addr: 1, Payload: []byte{0x01}}, // truncated echo payload
		})
		if err != nil {
			return err
		}
		if _, _, err := c.Recv(); err != nil {
			return err
		}
	}
	return nil
}

func TestRunWithGarbageNode(t *testing.T) {
	// Three honest expansion machines plus one wire-garbage node. With
	// n=4, t=1, the honest parties must still reach the top grade on
	// their common input.
	const n, tc, rounds = 4, 1, 3
	res, err := RunLocal(expandMachines(n, tc, rounds, 1), rounds, DefaultConfig(), map[int]func(string) error{
		3: func(addr string) error { return garbageNode(addr, 3, rounds) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := proxcensus.Result{Value: 1, Grade: proxcensus.MaxGrade(proxcensus.ExpandSlots(rounds))}
	for i := 0; i < n; i++ {
		if res.Errs[i] != nil {
			t.Fatalf("node %d: %v", i, res.Errs[i])
		}
		if i < 3 && res.Outputs[i].(proxcensus.Result) != want {
			t.Errorf("node %d: %v, want %v", i, res.Outputs[i], want)
		}
	}
}
