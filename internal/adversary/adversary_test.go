package adversary_test

import (
	"math/rand"
	"testing"

	"proxcensus/internal/adversary"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// collector is a machine that records everything it receives and sends
// nothing.
type collector struct {
	got   []sim.Message
	round int
}

func (c *collector) Start() []sim.Send { return nil }
func (c *collector) Deliver(round int, in []sim.Message) []sim.Send {
	c.round = round
	c.got = append(c.got, in...)
	return nil
}
func (c *collector) Output() (any, bool) { return len(c.got), true }

func runWith(t *testing.T, n, tc, rounds int, adv sim.Adversary) []*collector {
	t.Helper()
	machines := make([]sim.Machine, n)
	collectors := make([]*collector, n)
	for i := 0; i < n; i++ {
		collectors[i] = &collector{}
		machines[i] = collectors[i]
	}
	if _, err := sim.Run(sim.Config{N: n, T: tc, Rounds: rounds, Seed: 3}, machines, adv); err != nil {
		t.Fatal(err)
	}
	return collectors
}

func TestFirstT(t *testing.T) {
	if got := adversary.FirstT(0); len(got) != 0 {
		t.Errorf("FirstT(0) = %v", got)
	}
	if got := adversary.FirstT(3); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("FirstT(3) = %v", got)
	}
}

func TestFuncDefaults(t *testing.T) {
	f := &adversary.Func{}
	if f.Name() != "func" {
		t.Errorf("Name = %q", f.Name())
	}
	f.Init(nil) // must not panic with nil hooks
	if msgs := f.Act(1, nil, nil); msgs != nil {
		t.Errorf("Act = %v", msgs)
	}
	named := &adversary.Func{StrategyName: "custom"}
	if named.Name() != "custom" {
		t.Errorf("Name = %q", named.Name())
	}
}

func TestCrashSilences(t *testing.T) {
	adv := &adversary.Crash{Victims: []sim.PartyID{0, 1}}
	collectors := runWith(t, 4, 2, 2, adv)
	for i := 2; i < 4; i++ {
		if len(collectors[i].got) != 0 {
			t.Errorf("party %d received %d messages from crashed-only network", i, len(collectors[i].got))
		}
	}
}

func TestLateCrashTiming(t *testing.T) {
	// echoers broadcast every round; victims crash during round 2.
	const n, rounds = 3, 3
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		machines[i] = &broadcaster{}
	}
	adv := &adversary.LateCrash{Victims: []sim.PartyID{0}, When: 2}
	res, err := sim.Run(sim.Config{N: n, T: 1, Rounds: rounds, Seed: 1}, machines, adv)
	if err != nil {
		t.Fatal(err)
	}
	// Party 1 hears from 3 parties in round 1, then 2 parties after.
	perRound := machines[1].(*broadcaster).senders
	if perRound[1] != 3 || perRound[2] != 2 || perRound[3] != 2 {
		t.Errorf("senders per round = %v, want {1:3 2:2 3:2}", perRound)
	}
	if len(res.Corrupted) != 1 || res.Corrupted[0] != 0 {
		t.Errorf("corrupted = %v", res.Corrupted)
	}
}

// broadcaster sends one echo per round and counts distinct senders per
// round.
type broadcaster struct {
	senders map[int]int
	round   int
}

func (b *broadcaster) Start() []sim.Send {
	b.senders = make(map[int]int)
	return sim.BroadcastSend(proxcensus.EchoPayload{})
}
func (b *broadcaster) Deliver(round int, in []sim.Message) []sim.Send {
	b.round = round
	seen := map[sim.PartyID]bool{}
	for _, m := range in {
		seen[m.From] = true
	}
	b.senders[round] = len(seen)
	return sim.BroadcastSend(proxcensus.EchoPayload{})
}
func (b *broadcaster) Output() (any, bool) { return nil, true }

func TestRandomFloods(t *testing.T) {
	gen := func(rng *rand.Rand, round int, from, to sim.PartyID) sim.Payload {
		return proxcensus.EchoPayload{Z: rng.Intn(2), H: 0}
	}
	adv := &adversary.Random{Victims: []sim.PartyID{0}, Gen: gen}
	collectors := runWith(t, 3, 1, 2, adv)
	// Each honest party hears 1 message per round from the flooder.
	for i := 1; i < 3; i++ {
		if len(collectors[i].got) != 2 {
			t.Errorf("party %d got %d messages, want 2", i, len(collectors[i].got))
		}
	}
}

func TestRandomNilPayloadSkipsReceiver(t *testing.T) {
	gen := func(rng *rand.Rand, round int, from, to sim.PartyID) sim.Payload {
		if to == 1 {
			return nil
		}
		return proxcensus.EchoPayload{}
	}
	adv := &adversary.Random{Victims: []sim.PartyID{0}, Gen: gen}
	collectors := runWith(t, 3, 1, 1, adv)
	if len(collectors[1].got) != 0 {
		t.Errorf("party 1 got %d messages, want 0", len(collectors[1].got))
	}
	if len(collectors[2].got) != 1 {
		t.Errorf("party 2 got %d messages, want 1", len(collectors[2].got))
	}
}

func TestEquivocatorHalves(t *testing.T) {
	adv := &adversary.Equivocator{
		Victims: []sim.PartyID{0},
		A:       proxcensus.EchoPayload{Z: 0},
		B:       proxcensus.EchoPayload{Z: 1},
	}
	collectors := runWith(t, 5, 1, 1, adv)
	for i := 1; i < 5; i++ {
		if len(collectors[i].got) != 1 {
			t.Fatalf("party %d got %d messages", i, len(collectors[i].got))
		}
		z := collectors[i].got[0].Payload.(proxcensus.EchoPayload).Z
		wantZ := 0
		if i >= 2 { // n/2 = 2
			wantZ = 1
		}
		if z != wantZ {
			t.Errorf("party %d received z=%d, want %d", i, z, wantZ)
		}
	}
}

func TestReplayEchoesHonestTraffic(t *testing.T) {
	const n = 3
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		machines[i] = &broadcaster{}
	}
	adv := &adversary.Replay{Victims: []sim.PartyID{0}}
	if _, err := sim.Run(sim.Config{N: n, T: 1, Rounds: 2, Seed: 1}, machines, adv); err != nil {
		t.Fatal(err)
	}
	// Replay re-badges honest payloads; honest parties see traffic from
	// the corrupted sender too.
	if got := machines[1].(*broadcaster).senders[1]; got != 3 {
		t.Errorf("round-1 senders = %d, want 3 (2 honest + replayer)", got)
	}
}

func TestExpandKeepSplitBoostCount(t *testing.T) {
	tests := []struct{ n, tc, want int }{
		{4, 1, 1}, {7, 2, 1}, {10, 3, 1}, {12, 3, 3}, {16, 4, 4},
	}
	for _, tt := range tests {
		a := &adversary.ExpandKeepSplit{N: tt.n, T: tt.tc}
		if got := a.BoostCount(); got != tt.want {
			t.Errorf("BoostCount(n=%d,t=%d) = %d, want %d", tt.n, tt.tc, got, tt.want)
		}
	}
}

func TestSplitInputHelpers(t *testing.T) {
	in := adversary.ExpandSplitInputs(7, 2)
	zeros, ones := 0, 0
	for _, v := range in[2:] { // honest parties
		switch v {
		case 0:
			zeros++
		case 1:
			ones++
		default:
			t.Fatalf("non-binary input %d", v)
		}
	}
	if zeros != 3 || ones != 2 { // n-2t = 3 zeros among 5 honest
		t.Errorf("zeros=%d ones=%d, want 3/2", zeros, ones)
	}

	lin := adversary.LinearSplitInputs(5, 2)
	if lin[2] != 0 || lin[3] != 1 || lin[4] != 1 {
		t.Errorf("LinearSplitInputs = %v", lin)
	}
}

func TestAdaptiveSplitInactiveOnUnanimity(t *testing.T) {
	// All honest parties hold the same value: the adversary must stay
	// silent (no attack exists against pre-agreement).
	adv := &adversary.ExpandAdaptiveSplit{N: 4, T: 1, Period: 5}
	honest := []sim.Message{
		{From: 1, Payload: proxcensus.EchoPayload{Z: 1, H: 0}},
		{From: 2, Payload: proxcensus.EchoPayload{Z: 1, H: 0}},
		{From: 3, Payload: proxcensus.EchoPayload{Z: 1, H: 0}},
	}
	machines := make([]sim.Machine, 4)
	collectors := make([]*collector, 4)
	for i := range machines {
		collectors[i] = &collector{}
		machines[i] = collectors[i]
	}
	_ = honest
	// Drive via the engine: collectors send nothing, so the adversary
	// sees no echoes and cannot activate either.
	if _, err := sim.Run(sim.Config{N: 4, T: 1, Rounds: 2, Seed: 1}, machines, adv); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if len(collectors[i].got) != 0 {
			t.Errorf("inactive adversary sent traffic to %d", i)
		}
	}
}

// TestExpandAdaptiveSplitWarmActAllocations pins the straddle attack's
// steady state at the benchmark's n=127, t=42: once its payloads are
// boxed and its buffer sized, a round's t·n messages cost nothing, and
// each call refills the same buffer.
func TestExpandAdaptiveSplitWarmActAllocations(t *testing.T) {
	const n, tc = 127, 42
	machines := make([]sim.Machine, n)
	for i := range machines {
		machines[i] = proxcensus.NewExpandMachine(n, tc, 1, proxcensus.Value(i%2))
	}
	split := &adversary.ExpandAdaptiveSplit{N: n, T: tc, Period: 9}
	var env *sim.Env
	capture := &adversary.Func{
		InitFunc: func(e *sim.Env) { env = e; split.Init(e) },
		ActFunc:  split.Act,
	}
	// Round 1 reads the honest split and arms the attack.
	if _, err := sim.Run(sim.Config{N: n, T: tc, Rounds: 1, Seed: 1}, machines, capture); err != nil {
		t.Fatal(err)
	}
	first := split.Act(2, nil, env)
	if len(first) != tc*n {
		t.Fatalf("armed attack sent %d messages, want t·n = %d", len(first), tc*n)
	}
	if allocs := testing.AllocsPerRun(50, func() { split.Act(2, nil, env) }); allocs != 0 {
		t.Errorf("warm Act allocates %.1f objects per call; want 0", allocs)
	}
	if again := split.Act(3, nil, env); &again[0] != &first[0] {
		t.Error("Act did not refill its own buffer")
	}
}

// TestBlindHidesHonestTraffic pins the rushing ablation's wrapper: its
// inner adversary sees a nil view in every round yet keeps its
// corruptions and injections, while the tracer still receives the
// round's honest traffic.
func TestBlindHidesHonestTraffic(t *testing.T) {
	const n, tc, rounds = 4, 1, 3
	var views [][]sim.Message
	inner := &adversary.Func{
		InitFunc: func(env *sim.Env) { env.Corrupt(0) },
		ActFunc: func(round int, honest []sim.Message, env *sim.Env) []sim.Message {
			views = append(views, honest)
			return []sim.Message{{From: 0, To: sim.Broadcast, Payload: proxcensus.EchoPayload{Z: 1}}}
		},
	}
	machines := make([]sim.Machine, n)
	for i := range machines {
		machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, i%2)
	}
	rec := &sim.Recorder{}
	blind := &adversary.Blind{Inner: inner}
	res, err := sim.Run(sim.Config{N: n, T: tc, Rounds: rounds, Seed: 1, Tracer: rec}, machines, blind)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != rounds {
		t.Fatalf("inner adversary acted %d times, want %d", len(views), rounds)
	}
	for r, view := range views {
		if view != nil {
			t.Errorf("round %d: inner adversary saw %d honest messages, want a nil view", r+1, len(view))
		}
	}
	// The recorder files the Init-time corruption under round 0.
	if len(rec.Rounds) != rounds+1 {
		t.Fatalf("recorded %d rounds, want round 0 plus %d", len(rec.Rounds), rounds)
	}
	for _, rr := range rec.Rounds[1:] {
		if got := len(rr.Honest); got != (n-tc)*n {
			t.Errorf("round %d: tracer saw %d honest messages, want %d", rr.Round, got, (n-tc)*n)
		}
		if got := len(rr.Adversarial); got != 1 {
			t.Errorf("round %d: tracer saw %d adversary messages, want the injected 1", rr.Round, got)
		}
	}
	if len(res.Corrupted) != 1 || res.Corrupted[0] != 0 {
		t.Errorf("corrupted = %v, want [0]", res.Corrupted)
	}
	if got := blind.Name(); got != "blind(func)" {
		t.Errorf("Name = %q", got)
	}
}
