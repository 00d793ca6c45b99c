package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
)

// testPayload is a trivial payload carrying one int.
type testPayload struct {
	v    int
	sigs int
}

func (p testPayload) SigCount() int { return p.sigs }
func (p testPayload) ByteSize() int { return 8 }

// echoMachine broadcasts its input every round and outputs the multiset
// sum of values received in the final round.
type echoMachine struct {
	id     PartyID
	input  int
	rounds int
	sum    int
	done   bool
}

func (m *echoMachine) Start() []Send {
	return BroadcastSend(testPayload{v: m.input, sigs: 1})
}

func (m *echoMachine) Deliver(round int, in []Message) []Send {
	if round == m.rounds {
		m.sum = 0
		for _, msg := range in {
			if p, ok := msg.Payload.(testPayload); ok {
				m.sum += p.v
			}
		}
		m.done = true
		return nil
	}
	return BroadcastSend(testPayload{v: m.input, sigs: 1})
}

func (m *echoMachine) Output() (any, bool) {
	if !m.done {
		return nil, false
	}
	return m.sum, true
}

func echoMachines(n, rounds int) []Machine {
	ms := make([]Machine, n)
	for i := 0; i < n; i++ {
		ms[i] = &echoMachine{id: i, input: i + 1, rounds: rounds}
	}
	return ms
}

func TestRunConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		nm   int
	}{
		{"zero parties", Config{N: 0, T: 0, Rounds: 1}, 0},
		{"negative t", Config{N: 3, T: -1, Rounds: 1}, 3},
		{"t >= n", Config{N: 3, T: 3, Rounds: 1}, 3},
		{"negative rounds", Config{N: 3, T: 1, Rounds: -1}, 3},
		{"machine count mismatch", Config{N: 3, T: 1, Rounds: 1}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Run(tt.cfg, echoMachines(tt.nm, 1), Passive{})
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestRunFaultFree(t *testing.T) {
	const n, rounds = 4, 3
	res, err := Run(Config{N: n, T: 1, Rounds: rounds, Seed: 1}, echoMachines(n, rounds), Passive{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != n {
		t.Fatalf("got %d outputs, want %d", len(res.Outputs), n)
	}
	wantSum := 1 + 2 + 3 + 4
	for p, out := range res.Outputs {
		if out.(int) != wantSum {
			t.Errorf("party %d output %v, want %d", p, out, wantSum)
		}
	}
	if got := res.Metrics.Rounds; got != rounds {
		t.Errorf("rounds = %d, want %d", got, rounds)
	}
	// Each of the n parties broadcasts once per round: n*n messages.
	if got := res.Metrics.TotalHonestMessages(); got != n*n*rounds {
		t.Errorf("messages = %d, want %d", got, n*n*rounds)
	}
	if got := res.Metrics.TotalHonestSignatures(); got != n*n*rounds {
		t.Errorf("signatures = %d, want %d", got, n*n*rounds)
	}
	if got := res.Metrics.TotalHonestBytes(); got != 8*n*n*rounds {
		t.Errorf("bytes = %d, want %d", got, 8*n*n*rounds)
	}
}

// staticCorruptor corrupts a fixed set at Init and sends a chosen value
// to everyone each round.
type staticCorruptor struct {
	victims []PartyID
	value   int
}

func (s *staticCorruptor) Name() string { return "static" }

func (s *staticCorruptor) Init(env *Env) {
	for _, p := range s.victims {
		env.Corrupt(p)
	}
}

func (s *staticCorruptor) Act(round int, honest []Message, env *Env) []Message {
	msgs := make([]Message, 0, len(s.victims)*env.N())
	for _, p := range s.victims {
		for q := 0; q < env.N(); q++ {
			msgs = append(msgs, Message{From: p, To: q, Payload: testPayload{v: s.value}})
		}
	}
	return msgs
}

func TestRunStaticCorruption(t *testing.T) {
	const n, rounds = 4, 2
	adv := &staticCorruptor{victims: []PartyID{2}, value: 100}
	res, err := Run(Config{N: n, T: 1, Rounds: rounds, Seed: 1}, echoMachines(n, rounds), adv)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != n-1 {
		t.Fatalf("got %d outputs, want %d (corrupted excluded)", len(res.Outputs), n-1)
	}
	if _, ok := res.Outputs[2]; ok {
		t.Error("corrupted party must not report an output")
	}
	// Honest inputs 1, 2, 4 plus injected 100 instead of party 2's 3.
	wantSum := 1 + 2 + 4 + 100
	for p, out := range res.Outputs {
		if out.(int) != wantSum {
			t.Errorf("party %d output %v, want %d", p, out, wantSum)
		}
	}
	if got := res.Corrupted; len(got) != 1 || got[0] != 2 {
		t.Errorf("corrupted = %v, want [2]", got)
	}
}

// rushingInspector verifies the adversary sees all honest round traffic.
type rushingInspector struct {
	sawPerRound []int
}

func (r *rushingInspector) Name() string { return "inspector" }
func (r *rushingInspector) Init(*Env)    {}
func (r *rushingInspector) Act(round int, honest []Message, env *Env) []Message {
	r.sawPerRound = append(r.sawPerRound, len(honest))
	return nil
}

func TestRunRushingView(t *testing.T) {
	const n, rounds = 5, 2
	adv := &rushingInspector{}
	if _, err := Run(Config{N: n, T: 1, Rounds: rounds, Seed: 1}, echoMachines(n, rounds), adv); err != nil {
		t.Fatal(err)
	}
	for r, saw := range adv.sawPerRound {
		if saw != n*n {
			t.Errorf("round %d: adversary saw %d honest messages, want %d", r+1, saw, n*n)
		}
	}
}

// midRoundCorruptor corrupts its victim during round `when` after seeing
// the victim's messages, replacing them with value 999 (strongly
// rushing).
type midRoundCorruptor struct {
	victim PartyID
	when   int
}

func (m *midRoundCorruptor) Name() string { return "mid-round" }
func (m *midRoundCorruptor) Init(*Env)    {}
func (m *midRoundCorruptor) Act(round int, honest []Message, env *Env) []Message {
	if round != m.when || !env.Corrupt(m.victim) {
		return nil
	}
	msgs := make([]Message, 0, env.N())
	for q := 0; q < env.N(); q++ {
		msgs = append(msgs, Message{From: m.victim, To: q, Payload: testPayload{v: 999}})
	}
	return msgs
}

func TestRunStronglyRushingReplacement(t *testing.T) {
	const n = 4
	const rounds = 2
	adv := &midRoundCorruptor{victim: 0, when: rounds}
	res, err := Run(Config{N: n, T: 1, Rounds: rounds, Seed: 1}, echoMachines(n, rounds), adv)
	if err != nil {
		t.Fatal(err)
	}
	// In the final round party 0's honest broadcast (value 1) must have
	// been replaced by 999 for every receiver.
	wantSum := 999 + 2 + 3 + 4
	for p, out := range res.Outputs {
		if out.(int) != wantSum {
			t.Errorf("party %d output %v, want %d (victim's messages replaced)", p, out, wantSum)
		}
	}
}

// forger tries to speak for an honest party.
type forger struct{}

func (forger) Name() string { return "forger" }
func (forger) Init(*Env)    {}
func (forger) Act(round int, honest []Message, env *Env) []Message {
	return []Message{{From: 1, To: 0, Payload: testPayload{v: 5}}}
}

func TestRunAuthenticatedChannels(t *testing.T) {
	_, err := Run(Config{N: 3, T: 1, Rounds: 1, Seed: 1}, echoMachines(3, 1), forger{})
	if !errors.Is(err, ErrForgedSender) {
		t.Fatalf("err = %v, want ErrForgedSender", err)
	}
}

// greedyCorruptor tries to exceed the corruption budget.
type greedyCorruptor struct {
	succeeded int
}

func (g *greedyCorruptor) Name() string { return "greedy" }
func (g *greedyCorruptor) Init(env *Env) {
	for p := 0; p < env.N(); p++ {
		if env.Corrupt(p) {
			g.succeeded++
		}
	}
}
func (g *greedyCorruptor) Act(int, []Message, *Env) []Message { return nil }

func TestRunCorruptionBudget(t *testing.T) {
	const n, tcorr = 7, 2
	adv := &greedyCorruptor{}
	res, err := Run(Config{N: n, T: tcorr, Rounds: 1, Seed: 1}, echoMachines(n, 1), adv)
	if err != nil {
		t.Fatal(err)
	}
	if adv.succeeded != tcorr {
		t.Errorf("adversary corrupted %d parties, budget %d", adv.succeeded, tcorr)
	}
	if res.Metrics.Corruptions != tcorr {
		t.Errorf("metrics corruptions = %d, want %d", res.Metrics.Corruptions, tcorr)
	}
	if _, ok := res.Outputs[0]; ok {
		t.Error("party 0 should be corrupted (greedy corrupts low IDs first)")
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(Config{N: 5, T: 1, Rounds: 3, Seed: 42}, echoMachines(5, 3), &staticCorruptor{victims: []PartyID{4}, value: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for p, out := range a.Outputs {
		if b.Outputs[p] != out {
			t.Errorf("party %d: run A output %v, run B output %v", p, out, b.Outputs[p])
		}
	}
	if a.Metrics.String() != b.Metrics.String() {
		t.Errorf("metrics differ: %s vs %s", a.Metrics.String(), b.Metrics.String())
	}
}

func TestRunNoOutput(t *testing.T) {
	// One round short: echo machines finish only at their round budget.
	_, err := Run(Config{N: 3, T: 0, Rounds: 1, Seed: 1}, echoMachines(3, 2), Passive{})
	if !errors.Is(err, ErrNoOutput) {
		t.Fatalf("err = %v, want ErrNoOutput", err)
	}
}

func TestRunZeroRounds(t *testing.T) {
	ms := []Machine{NewFunc(1), NewFunc(2)}
	res, err := Run(Config{N: 2, T: 0, Rounds: 0, Seed: 1}, ms, Passive{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0].(int) != 1 || res.Outputs[1].(int) != 2 {
		t.Errorf("outputs = %v", res.Outputs)
	}
}

func TestExpandSendsUnicastRange(t *testing.T) {
	sends := []Send{
		{To: 2, Payload: testPayload{v: 1}},
		{To: 9, Payload: testPayload{v: 2}},  // silently dropped
		{To: -5, Payload: testPayload{v: 3}}, // silently dropped
	}
	msgs := make([]Message, expandedCount(3, sends))
	fillSends(msgs, 0, 1, 3, sends)
	if len(msgs) != 1 || msgs[0].To != 2 {
		t.Errorf("msgs = %+v, want single message to party 2", msgs)
	}
}

// chaosMachine emits pathological sends: out-of-range destinations,
// nil payloads, huge fan-out. The engine must stay deterministic and
// never panic.
type chaosMachine struct {
	id    PartyID
	round int
}

func (m *chaosMachine) Start() []Send {
	return []Send{
		{To: -99, Payload: testPayload{v: 1}},
		{To: 1 << 20, Payload: testPayload{v: 2}},
		{To: Broadcast, Payload: nil},
		{To: m.id, Payload: testPayload{v: 3}},
	}
}

func (m *chaosMachine) Deliver(round int, in []Message) []Send {
	m.round = round
	sends := make([]Send, 0, 64)
	for i := 0; i < 64; i++ {
		sends = append(sends, Send{To: i % 5, Payload: testPayload{v: i}})
	}
	return sends
}

func (m *chaosMachine) Output() (any, bool) { return m.round, m.round >= 2 }

func TestRunChaosMachines(t *testing.T) {
	machines := make([]Machine, 4)
	for i := range machines {
		machines[i] = &chaosMachine{id: i}
	}
	res, err := Run(Config{N: 4, T: 1, Rounds: 2, Seed: 1}, machines, Passive{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 4 {
		t.Fatalf("outputs = %d", len(res.Outputs))
	}
	// Nil payloads are metered as zero-size but still delivered.
	if res.Metrics.TotalHonestMessages() == 0 {
		t.Error("no traffic metered")
	}
}

// TestRunNilPayloadDelivery: nil payloads flow through delivery without
// panicking machines that type-switch on payloads.
func TestRunNilPayloadDelivery(t *testing.T) {
	res, err := Run(Config{N: 2, T: 0, Rounds: 1, Seed: 1}, []Machine{
		&chaosMachine{id: 0}, &chaosMachine{id: 1},
	}, Passive{})
	if err == nil {
		_ = res
	}
	// chaos machines have no output until round 2; expect ErrNoOutput.
	if !errors.Is(err, ErrNoOutput) {
		t.Fatalf("err = %v, want ErrNoOutput", err)
	}
}

// fixedSendMachine broadcasts a pre-built send list every round; it
// allocates nothing after construction, so it isolates the engine's own
// allocation behavior.
type fixedSendMachine struct {
	sends []Send
	seen  int
}

func (m *fixedSendMachine) Start() []Send { return m.sends }

func (m *fixedSendMachine) Deliver(round int, in []Message) []Send {
	m.seen += len(in)
	return m.sends
}

func (m *fixedSendMachine) Output() (any, bool) { return m.seen, true }

// reusingAdversary corrupts parties 0..t-1 and injects, every round,
// one broadcast and one unicast per corrupted party from a buffer it
// owns and refills (sim.Adversary allows reuse across calls).
type reusingAdversary struct {
	t       int
	payload Payload
	msgs    []Message
}

func (a *reusingAdversary) Name() string { return "reusing" }

func (a *reusingAdversary) Init(env *Env) {
	for p := 0; p < a.t; p++ {
		env.Corrupt(p)
	}
}

func (a *reusingAdversary) Act(round int, _ []Message, env *Env) []Message {
	msgs := a.msgs[:0]
	for from := a.t - 1; from >= 0; from-- {
		msgs = append(msgs,
			Message{From: from, To: Broadcast, Payload: a.payload},
			Message{From: from, To: (from + round) % env.N(), Payload: a.payload})
	}
	a.msgs = msgs
	return msgs
}

// TestRunSteadyStateAllocations locks in the pooling refactor: once the
// round loop is warm (round 1 grows the pooled buffers), additional
// rounds must allocate nothing — also with an
// adversary whose unicasts and broadcasts the engine buckets into the
// inboxes. Measured as the marginal allocation count per extra round
// between a short and a long execution of allocation-free machines.
func TestRunSteadyStateAllocations(t *testing.T) {
	const n = 8
	var payload Payload = testPayload{v: 1, sigs: 1}
	machines := make([]Machine, n)
	for p := 0; p < n; p++ {
		machines[p] = &fixedSendMachine{sends: []Send{{To: Broadcast, Payload: payload}}}
	}
	for _, tc := range []struct {
		name string
		t    int
		adv  Adversary
	}{
		{"passive", 0, Passive{}},
		{"injecting", 2, &reusingAdversary{t: 2, payload: payload}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(rounds int) float64 {
				return testing.AllocsPerRun(10, func() {
					if _, err := Run(Config{N: n, T: tc.t, Rounds: rounds}, machines, tc.adv); err != nil {
						t.Fatal(err)
					}
				})
			}
			const short, long = 2, 34
			perRound := (allocs(long) - allocs(short)) / float64(long-short)
			if perRound >= 1 {
				t.Errorf("engine allocates %.2f objects per steady-state round; want 0", perRound)
			}
		})
	}
}

// retainingMachine broadcasts its round number and keeps the inbox
// slice the engine hands it in round 1 — the retention noretain forbids
// real machines. In round 2 it records what that kept slice holds.
type retainingMachine struct {
	kept    []Message
	inRound []int // kept[i].Round, read during round 2
}

func (m *retainingMachine) Start() []Send { return BroadcastSend(testPayload{v: 1}) }

func (m *retainingMachine) Deliver(round int, in []Message) []Send {
	switch round {
	case 1:
		m.kept = in
	case 2:
		for _, msg := range m.kept {
			m.inRound = append(m.inRound, msg.Round)
		}
	}
	return BroadcastSend(testPayload{v: round + 1})
}

func (m *retainingMachine) Output() (any, bool) { return nil, true }

// TestRetainedInboxIsOverwritten is noretain's runtime witness: the
// engine pools each party's inbox, so a slice a machine keeps from
// round 1 holds round 2's messages by the time round 2 is delivered.
// That is the hazard the analyzer rules out; if the engine ever stops
// pooling inboxes this test fails, and noretain's reason with it.
func TestRetainedInboxIsOverwritten(t *testing.T) {
	const n = 4
	machines := make([]Machine, n)
	for p := range machines {
		machines[p] = &retainingMachine{}
	}
	if _, err := Run(Config{N: n, Rounds: 2}, machines, nil); err != nil {
		t.Fatal(err)
	}
	for p, m := range machines {
		got := m.(*retainingMachine).inRound
		if len(got) != n {
			t.Fatalf("party %d kept %d messages, want %d", p, len(got), n)
		}
		for i, r := range got {
			if r != 2 {
				t.Errorf("party %d: kept round-1 message %d reads round %d in round 2; want the pooled inbox overwritten with round 2", p, i, r)
			}
		}
	}
}

// TestRunGoldenAdversaries pins the two adversary shapes the protocol
// goldens exercise least: an adaptive mid-round corruption (the
// strongly rushing drop) and broadcasts plus unicasts injected in
// descending sender order (the adversary bucketing). The hashes cover
// the trace, metrics, outputs and corrupted set, and were recorded
// while the engine still had a parallel mode that was checked
// byte-identical to the sequential one.
func TestRunGoldenAdversaries(t *testing.T) {
	for _, tc := range []struct {
		name string
		adv  Adversary
		want string
	}{
		{"mid-round", &midRoundCorruptor{victim: 2, when: 3}, "e16bbe9d272d869dd9ab4b39f00e8c8f49c8baa97ff982e327a723910ec6c6d6"},
		{"injecting", &reusingAdversary{t: 3, payload: testPayload{v: 100}}, "14340b39c2678c0f2f9c73bb6cfa9347d68ab3b2d91cf43f3b00755823d338e6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, corrupt, rounds = 9, 3, 6
			rec := &Recorder{}
			res, err := Run(Config{N: n, T: corrupt, Rounds: rounds, Seed: 7, Tracer: rec}, echoMachines(n, rounds), tc.adv)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			h.Write([]byte(rec.Fingerprint()))
			fmt.Fprintf(h, "|%+v|%v|%v", res.Metrics, res.HonestOutputs(), res.Corrupted)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("execution hash = %s, want %s", got, tc.want)
			}
		})
	}
}
