package sim

import (
	"math/rand"
	"testing"
)

// addMachine runs for `rounds` rounds; each round it broadcasts its
// current value and adds up the values received. Output is the final
// value. With n honest parties starting at 1, after k rounds every value
// is n^k.
type addMachine struct {
	value  int
	rounds int
	round  int
}

func (m *addMachine) Start() []Send {
	return BroadcastSend(testPayload{v: m.value})
}

func (m *addMachine) Deliver(round int, in []Message) []Send {
	m.round = round
	sum := 0
	for _, msg := range in {
		if p, ok := msg.Payload.(testPayload); ok {
			sum += p.v
		}
	}
	m.value = sum
	if round >= m.rounds {
		return nil
	}
	return BroadcastSend(testPayload{v: m.value})
}

func (m *addMachine) Output() (any, bool) {
	if m.round < m.rounds {
		return nil, false
	}
	return m.value, true
}

func TestChainTwoStages(t *testing.T) {
	const n = 3
	machines := make([]Machine, n)
	for i := range machines {
		machines[i] = NewChain([]Stage{
			{Rounds: 2, New: func(any) Machine { return &addMachine{value: 1, rounds: 2} }},
			{Rounds: 1, New: func(prev any) Machine { return &addMachine{value: prev.(int), rounds: 1} }},
		})
	}
	res, err := Run(Config{N: n, T: 0, Rounds: 3, Seed: 1}, machines, Passive{})
	if err != nil {
		t.Fatal(err)
	}
	// Stage 1: 1 -> 3 -> 9. Stage 2: 9 -> 27.
	for p, out := range res.Outputs {
		if out.(int) != 27 {
			t.Errorf("party %d output %v, want 27", p, out)
		}
	}
}

func TestChainZeroRoundStage(t *testing.T) {
	const n = 2
	machines := make([]Machine, n)
	for i := range machines {
		machines[i] = NewChain([]Stage{
			{Rounds: 1, New: func(any) Machine { return &addMachine{value: 2, rounds: 1} }},
			{Rounds: 0, New: func(prev any) Machine { return NewFunc(prev.(int) * 10) }},
			{Rounds: 1, New: func(prev any) Machine { return &addMachine{value: prev.(int), rounds: 1} }},
		})
	}
	res, err := Run(Config{N: n, T: 0, Rounds: 2, Seed: 1}, machines, Passive{})
	if err != nil {
		t.Fatal(err)
	}
	// Stage 1: 2 -> 4 (n=2). Func: 40. Stage 3: 40 -> 80.
	for p, out := range res.Outputs {
		if out.(int) != 80 {
			t.Errorf("party %d output %v, want 80", p, out)
		}
	}
}

func TestChainLeadingZeroRoundStage(t *testing.T) {
	const n = 2
	machines := make([]Machine, n)
	for i := range machines {
		machines[i] = NewChain([]Stage{
			{Rounds: 0, New: func(any) Machine { return NewFunc(5) }},
			{Rounds: 1, New: func(prev any) Machine { return &addMachine{value: prev.(int), rounds: 1} }},
		})
	}
	res, err := Run(Config{N: n, T: 0, Rounds: 1, Seed: 1}, machines, Passive{})
	if err != nil {
		t.Fatal(err)
	}
	for p, out := range res.Outputs {
		if out.(int) != 10 {
			t.Errorf("party %d output %v, want 10", p, out)
		}
	}
}

func TestChainRounds(t *testing.T) {
	stages := []Stage{{Rounds: 2}, {Rounds: 0}, {Rounds: 5}}
	if got := ChainRounds(stages); got != 7 {
		t.Errorf("ChainRounds = %d, want 7", got)
	}
}

// TestChainLocalRounds: the second stage is told its local rounds,
// starting at 1, while the messages it is handed keep the engine's
// global round numbers.
func TestChainLocalRounds(t *testing.T) {
	var seen []int
	probe := func(prev any) Machine {
		return &probeMachine{seen: &seen, offset: 2}
	}
	const n = 2
	machines := make([]Machine, n)
	for i := range machines {
		machines[i] = NewChain([]Stage{
			{Rounds: 2, New: func(any) Machine { return &addMachine{value: 1, rounds: 2} }},
			{Rounds: 2, New: probe},
		})
	}
	if _, err := Run(Config{N: n, T: 0, Rounds: 4, Seed: 1}, machines, Passive{}); err != nil {
		t.Fatal(err)
	}
	// Two parties, two local rounds each: 1,1,2,2 in some order.
	ones, twos := 0, 0
	for _, r := range seen {
		switch r {
		case 1:
			ones++
		case 2:
			twos++
		default:
			t.Errorf("probe saw local round %d, want 1 or 2", r)
		}
	}
	if ones != n || twos != n {
		t.Errorf("probe rounds = %v", seen)
	}
}

// probeMachine records the local rounds it is delivered and flags any
// message whose Round is not the global round offset+round.
type probeMachine struct {
	seen   *[]int
	offset int
	last   int
}

func (p *probeMachine) Start() []Send { return nil }
func (p *probeMachine) Deliver(round int, in []Message) []Send {
	*p.seen = append(*p.seen, round)
	p.last = round
	for _, m := range in {
		if m.Round != p.offset+round {
			*p.seen = append(*p.seen, -1000-m.Round) // flag mismatch
		}
	}
	return nil
}
func (p *probeMachine) Output() (any, bool) { return p.last, p.last >= 2 }

// TestChainRandomStructures: random stage trees compose correctly — a
// pipeline of addMachines whose expected output is computable in
// closed form (each k-round stage multiplies the value by n^k).
func TestChainRandomStructures(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := rng.Intn(3) + 2
		numStages := rng.Intn(4) + 1
		stages := make([]Stage, 0, numStages+2)
		totalRounds := 0
		expected := 1
		for s := 0; s < numStages; s++ {
			rounds := rng.Intn(3) // 0..2 (zero-round stages exercise Func)
			totalRounds += rounds
			if rounds == 0 {
				stages = append(stages, Stage{Rounds: 0, New: func(prev any) Machine {
					v := 1
					if prev != nil {
						v = prev.(int)
					}
					return NewFunc(v)
				}})
				continue
			}
			rr := rounds
			stages = append(stages, Stage{Rounds: rr, New: func(prev any) Machine {
				v := 1
				if prev != nil {
					v = prev.(int)
				}
				return &addMachine{value: v, rounds: rr}
			}})
			for k := 0; k < rounds; k++ {
				expected *= n
			}
		}
		machines := make([]Machine, n)
		for i := range machines {
			machines[i] = NewChain(append([]Stage(nil), stages...))
		}
		res, err := Run(Config{N: n, T: 0, Rounds: totalRounds, Seed: int64(trial)}, machines, Passive{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for p, out := range res.Outputs {
			if out.(int) != expected {
				t.Fatalf("trial %d (n=%d stages=%d): party %d output %v, want %d",
					trial, n, numStages, p, out, expected)
			}
		}
	}
}

// quietMachine sends nothing and allocates nothing; it remembers the
// last inbox it was handed so the test can see what the Chain passed.
type quietMachine struct {
	rounds int
	round  int
	last   []Message
}

func (q *quietMachine) Start() []Send { return nil }
func (q *quietMachine) Deliver(round int, in []Message) []Send {
	q.round = round
	q.last = in // kept only for the test to see which slice the Chain passed
	return nil
}
func (q *quietMachine) Output() (any, bool) { return q.round, q.round >= q.rounds }

// TestChainPassesEngineInbox: every stage, the first and a later one,
// is handed the engine's inbox itself, messages and their global Round
// unchanged, with its local round in Deliver's argument — so a warm
// round allocates nothing.
func TestChainPassesEngineInbox(t *testing.T) {
	first, second := &quietMachine{rounds: 2}, &quietMachine{rounds: 1 << 20}
	c := NewChain([]Stage{
		{Rounds: 2, New: func(any) Machine { return first }},
		{Rounds: 1 << 20, New: func(any) Machine { return second }},
	})
	c.Start()
	in := make([]Message, 8)
	deliver := func(round int) {
		for i := range in {
			in[i] = Message{From: i, Round: round}
		}
		c.Deliver(round, in)
	}
	deliver(1)
	if &first.last[0] != &in[0] || first.round != 1 {
		t.Fatalf("the first stage was not handed the engine's inbox at local round 1 (round %d)", first.round)
	}
	deliver(2) // the first stage's window ends; the second starts at offset 2
	round := 2
	deliver(round + 1)
	allocs := testing.AllocsPerRun(50, func() {
		round++
		deliver(round)
	})
	if allocs != 0 {
		t.Errorf("warm Chain.Deliver at offset 2 made %.1f allocations, want 0", allocs)
	}
	if &second.last[0] != &in[0] {
		t.Error("the second stage was not handed the engine's inbox")
	}
	if second.round != round-2 {
		t.Errorf("the second stage was told round %d, want local round %d", second.round, round-2)
	}
	for i, m := range second.last {
		if m.Round != round {
			t.Fatalf("message %d: the second stage sees round %d, want the global round %d", i, m.Round, round)
		}
	}
}

// TestChainResetMatchesNew: a chain Reset after a run cut short inside
// its second stage runs like a new one, building its stages afresh.
func TestChainResetMatchesNew(t *testing.T) {
	const n = 3
	stages := func() []Stage {
		return []Stage{
			{Rounds: 2, New: func(any) Machine { return &addMachine{value: 1, rounds: 2} }},
			{Rounds: 1, New: func(prev any) Machine { return &addMachine{value: prev.(int), rounds: 1} }},
		}
	}
	chains := make([]*Chain, n)
	machines := make([]Machine, n)
	for i := range machines {
		chains[i] = NewChain(stages())
		machines[i] = chains[i]
	}
	if _, err := Run(Config{N: n, T: 0, Rounds: 3, Seed: 1}, machines, Passive{}); err != nil {
		t.Fatal(err)
	}
	for _, c := range chains {
		c.Reset()
		if out, ok := c.Output(); ok || out != nil {
			t.Fatalf("a Reset chain reports output %v, %v", out, ok)
		}
	}
	// Abandon the second run in its last stage's only round.
	if _, err := Run(Config{N: n, T: 0, Rounds: 2, Seed: 1}, machines, Passive{}); err == nil {
		t.Fatal("a run cut before the last stage's round produced outputs")
	}
	for _, c := range chains {
		c.Reset()
	}
	res, err := Run(Config{N: n, T: 0, Rounds: 3, Seed: 1}, machines, Passive{})
	if err != nil {
		t.Fatal(err)
	}
	for p, out := range res.Outputs {
		if out.(int) != 27 {
			t.Errorf("party %d output %v after Reset, want 27 as from NewChain", p, out)
		}
	}
}
