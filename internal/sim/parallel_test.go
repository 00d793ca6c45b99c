package sim

import (
	"fmt"
	"sync"
	"testing"
)

// TestParallelFor checks the work-distribution primitive: every index
// is visited exactly once for any (workers, n) shape, including the
// inline path and more workers than work.
func TestParallelFor(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			visited := make([]int, n)
			var mu sync.Mutex
			parallelFor(workers, n, func(i int) {
				mu.Lock()
				visited[i]++
				mu.Unlock()
			})
			for i, c := range visited {
				if c != 1 {
					t.Errorf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestRunWorkersEquivalence is the engine-level determinism contract:
// for every worker count, an execution against an adaptive mid-round
// corruptor, and one against an adversary injecting broadcasts and
// unicasts in descending sender order, produce the identical trace,
// metrics, outputs and corrupted set as the sequential engine. The
// parallel phases write only party-indexed slots and merge in ID order,
// so this must hold exactly, not statistically.
func TestRunWorkersEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		adv  func() Adversary
	}{
		{"mid-round", func() Adversary { return &midRoundCorruptor{victim: 2, when: 3} }},
		{"injecting", func() Adversary { return &reusingAdversary{t: 3, payload: testPayload{v: 100}} }},
	} {
		t.Run(tc.name, func(t *testing.T) { checkWorkersEquivalence(t, tc.adv) })
	}
}

func checkWorkersEquivalence(t *testing.T, newAdv func() Adversary) {
	const n, tc, rounds = 9, 3, 6
	type snapshot struct {
		fingerprint string
		metrics     string
		outputs     string
		corrupted   string
	}
	run := func(workers int) snapshot {
		machines := make([]Machine, n)
		for p := 0; p < n; p++ {
			machines[p] = &echoMachine{id: p, input: p + 1, rounds: rounds}
		}
		adv := newAdv()
		rec := &Recorder{}
		res, err := Run(Config{N: n, T: tc, Rounds: rounds, Seed: 7, Tracer: rec, Workers: workers}, machines, adv)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return snapshot{
			fingerprint: rec.Fingerprint(),
			metrics:     fmt.Sprintf("%+v", res.Metrics),
			outputs:     fmt.Sprint(res.HonestOutputs()),
			corrupted:   fmt.Sprint(res.Corrupted),
		}
	}

	want := run(0)
	for _, workers := range []int{1, 2, 4, -1} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d diverges from sequential engine:\n  got  %+v\n  want %+v", workers, got, want)
		}
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
// rounds of the sequential engine must allocate nothing — also with an
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
				t.Errorf("sequential engine allocates %.2f objects per steady-state round; want 0", perRound)
			}
		})
	}
}
