package proxcensus_test

import (
	"fmt"
	"math/rand"
	"testing"

	"proxcensus/internal/adversary"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// runExpand executes the t<n/3 expansion protocol and returns the honest
// results keyed by party.
func runExpand(t *testing.T, n, tc, rounds int, inputs []int, adv sim.Adversary, seed int64) map[int]proxcensus.Result {
	t.Helper()
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, inputs[i])
	}
	res, err := sim.Run(sim.Config{N: n, T: tc, Rounds: rounds, Seed: seed}, machines, adv)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := make(map[int]proxcensus.Result, len(res.Outputs))
	for p, o := range res.Outputs {
		out[p] = o.(proxcensus.Result)
	}
	return out
}

func resultsOf(m map[int]proxcensus.Result) []proxcensus.Result {
	out := make([]proxcensus.Result, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	return out
}

// randomEchoGen fabricates random (z, h) pairs within (or slightly out
// of) the plausible range for each round's source slot count.
func randomEchoGen(rng *rand.Rand, round int, _, _ sim.PartyID) sim.Payload {
	srcSlots := proxcensus.ExpandSlots(round - 1)
	return proxcensus.EchoPayload{
		Z: rng.Intn(2),
		H: rng.Intn(proxcensus.MaxGrade(srcSlots)+2) - rng.Intn(2),
	}
}

func TestExpandMachineValidity(t *testing.T) {
	cases := []struct{ n, tc, rounds int }{
		{4, 1, 1}, {4, 1, 3}, {7, 2, 4}, {10, 3, 5}, {13, 4, 2},
	}
	for _, c := range cases {
		for _, v := range []int{0, 1} {
			name := fmt.Sprintf("n=%d/t=%d/r=%d/v=%d", c.n, c.tc, c.rounds, v)
			t.Run(name, func(t *testing.T) {
				inputs := make([]int, c.n)
				for i := range inputs {
					inputs[i] = v
				}
				s := proxcensus.ExpandSlots(c.rounds)
				advs := []sim.Adversary{
					sim.Passive{},
					&adversary.Crash{Victims: adversary.FirstT(c.tc)},
					&adversary.Random{Victims: adversary.FirstT(c.tc), Gen: randomEchoGen},
					&adversary.Equivocator{
						Victims: adversary.FirstT(c.tc),
						A:       proxcensus.EchoPayload{Z: 0, H: 0},
						B:       proxcensus.EchoPayload{Z: 1, H: 0},
					},
				}
				for _, adv := range advs {
					got := runExpand(t, c.n, c.tc, c.rounds, inputs, adv, 11)
					honest := resultsOf(got)
					if err := proxcensus.CheckValidity(s, v, honest); err != nil {
						t.Errorf("adversary %s: %v", adv.Name(), err)
					}
				}
			})
		}
	}
}

func TestExpandMachineConsistencyUnderAttack(t *testing.T) {
	const trials = 40
	cases := []struct{ n, tc, rounds int }{
		{4, 1, 1}, {4, 1, 2}, {4, 1, 4}, {7, 2, 3}, {10, 3, 4},
	}
	for _, c := range cases {
		s := proxcensus.ExpandSlots(c.rounds)
		t.Run(fmt.Sprintf("n=%d/t=%d/r=%d", c.n, c.tc, c.rounds), func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)))
				inputs := make([]int, c.n)
				for i := range inputs {
					inputs[i] = rng.Intn(2)
				}
				adv := &adversary.Random{Victims: adversary.FirstT(c.tc), Gen: randomEchoGen}
				got := runExpand(t, c.n, c.tc, c.rounds, inputs, adv, int64(trial*31+7))
				honest := resultsOf(got)
				if err := proxcensus.CheckConsistency(s, honest); err != nil {
					t.Fatalf("trial %d inputs %v: %v", trial, inputs, err)
				}
				if err := proxcensus.CheckAdjacent(s, honest); err != nil {
					t.Fatalf("trial %d inputs %v: %v", trial, inputs, err)
				}
			}
		})
	}
}

// TestExpandMachineExhaustiveSmall model-checks the one-round expansion
// (Prox_3, n=4, t=1): every honest input vector crossed with every
// adversary message assignment from the valid payload palette.
func TestExpandMachineExhaustiveSmall(t *testing.T) {
	const n, tc, rounds = 4, 1, 1
	// The corrupted party sends one of these to each honest party:
	// value 0, value 1, or nothing.
	palette := []*proxcensus.EchoPayload{
		{Z: 0, H: 0},
		{Z: 1, H: 0},
		nil,
	}
	honestIDs := []int{1, 2, 3}
	var runs int
	for inputsMask := 0; inputsMask < 8; inputsMask++ {
		inputs := []int{0, (inputsMask >> 0) & 1, (inputsMask >> 1) & 1, (inputsMask >> 2) & 1}
		for a0 := range palette {
			for a1 := range palette {
				for a2 := range palette {
					choice := map[int]*proxcensus.EchoPayload{
						1: palette[a0], 2: palette[a1], 3: palette[a2],
					}
					adv := &adversary.Func{
						StrategyName: "scripted",
						InitFunc:     func(env *sim.Env) { env.Corrupt(0) },
						ActFunc: func(round int, _ []sim.Message, env *sim.Env) []sim.Message {
							var msgs []sim.Message
							for _, to := range honestIDs {
								if p := choice[to]; p != nil {
									msgs = append(msgs, sim.Message{From: 0, To: to, Payload: *p})
								}
							}
							return msgs
						},
					}
					got := runExpand(t, n, tc, rounds, inputs, adv, 1)
					honest := resultsOf(got)
					if err := proxcensus.CheckConsistency(3, honest); err != nil {
						t.Fatalf("inputs %v adv (%d,%d,%d): %v", inputs, a0, a1, a2, err)
					}
					// Pre-agreement among honest parties must survive.
					if inputs[1] == inputs[2] && inputs[2] == inputs[3] {
						if err := proxcensus.CheckValidity(3, inputs[1], honest); err != nil {
							t.Fatalf("inputs %v adv (%d,%d,%d): %v", inputs, a0, a1, a2, err)
						}
					}
					runs++
				}
			}
		}
	}
	if runs != 8*27 {
		t.Fatalf("explored %d executions, want %d", runs, 8*27)
	}
}

// TestExpandMachineGradesReactToSplit: a clean half/half honest split
// with a silent adversary yields grade 0 everywhere (nobody can see
// n-t on one value).
func TestExpandMachineGradesReactToSplit(t *testing.T) {
	const n, tc, rounds = 9, 2, 3
	inputs := []int{0, 0, 0, 0, 1, 1, 1, 1, 1}
	got := runExpand(t, n, tc, rounds, inputs, &adversary.Crash{Victims: []int{0, 4}}, 5)
	s := proxcensus.ExpandSlots(rounds)
	honest := resultsOf(got)
	if err := proxcensus.CheckConsistency(s, honest); err != nil {
		t.Fatal(err)
	}
	// 3 honest zeros vs 4 honest ones, n-t = 7: no value reaches n-t in
	// round 1, so everyone stays at grade 0 forever.
	for p, r := range got {
		if r.Grade != 0 {
			t.Errorf("party %d: grade %d, want 0 under even split", p, r.Grade)
		}
	}
}

// TestExpandMachineLateCorruption exercises the strongly rushing drop:
// the victim behaves honestly, then its final-round messages vanish.
func TestExpandMachineLateCorruption(t *testing.T) {
	const n, tc, rounds = 7, 2, 3
	inputs := []int{1, 1, 1, 1, 1, 1, 1}
	adv := &adversary.LateCrash{Victims: []int{3, 5}, When: rounds}
	got := runExpand(t, n, tc, rounds, inputs, adv, 3)
	honest := resultsOf(got)
	s := proxcensus.ExpandSlots(rounds)
	if err := proxcensus.CheckValidity(s, 1, honest); err != nil {
		t.Fatal(err)
	}
	if len(honest) != n-tc {
		t.Fatalf("got %d honest outputs, want %d", len(honest), n-tc)
	}
}

func TestExpandMachineMetrics(t *testing.T) {
	const n, tc, rounds = 4, 1, 3
	inputs := []int{1, 1, 1, 1}
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, inputs[i])
	}
	res, err := sim.Run(sim.Config{N: n, T: tc, Rounds: rounds, Seed: 1}, machines, sim.Passive{})
	if err != nil {
		t.Fatal(err)
	}
	// Unconditional protocol: zero signatures; n^2 messages per round.
	if got := res.Metrics.TotalHonestSignatures(); got != 0 {
		t.Errorf("signatures = %d, want 0 (perfectly secure protocol)", got)
	}
	if got := res.Metrics.TotalHonestMessages(); got != n*n*rounds {
		t.Errorf("messages = %d, want %d", got, n*n*rounds)
	}
}

// TestExpandMachineResetMatchesNew: machines run once under a Byzantine
// adversary, then through a run abandoned after round 2, then Reset
// with new inputs, execute the next script exactly as machines from
// NewExpandMachine do: the same transcript and outputs. Resetting a
// warm machine allocates nothing.
func TestExpandMachineResetMatchesNew(t *testing.T) {
	const n, tc, rounds = 7, 2, 4
	newAdv := func() sim.Adversary {
		return &adversary.Random{Victims: adversary.FirstT(tc), Gen: randomEchoGen}
	}
	inputs := [][]int{{0, 1, 1, 0, 1, 0, 1}, {1, 1, 0, 0, 0, 1, 1}, {1, 0, 1, 1, 0, 1, 0}}
	build := func(in []int) []sim.Machine {
		ms := make([]sim.Machine, n)
		for i := range ms {
			ms[i] = proxcensus.NewExpandMachine(n, tc, rounds, in[i])
		}
		return ms
	}
	run := func(ms []sim.Machine, r int, seed int64) (string, map[int]any, error) {
		rec := &sim.Recorder{}
		res, err := sim.Run(sim.Config{N: n, T: tc, Rounds: r, Seed: seed, Tracer: rec}, ms, newAdv())
		if err != nil {
			return "", nil, err
		}
		return rec.Fingerprint(), res.Outputs, nil
	}
	reset := func(ms []sim.Machine, in []int) {
		for i, m := range ms {
			m.(*proxcensus.ExpandMachine).Reset(in[i])
		}
	}

	reused := build(inputs[0])
	if _, _, err := run(reused, rounds, 3); err != nil {
		t.Fatal(err)
	}
	reset(reused, inputs[1])
	if _, _, err := run(reused, 2, 4); err == nil {
		t.Fatal("a run abandoned after round 2 of 4 produced outputs")
	}
	reset(reused, inputs[2])
	got, gotOut, err := run(reused, rounds, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, wantOut, err := run(build(inputs[2]), rounds, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("transcript after Reset differs from NewExpandMachine's:\n%.2000s\nwant:\n%.2000s", got, want)
	}
	if fmt.Sprint(gotOut) != fmt.Sprint(wantOut) {
		t.Fatalf("outputs after Reset %v, from NewExpandMachine %v", gotOut, wantOut)
	}

	m := reused[n-1].(*proxcensus.ExpandMachine)
	if allocs := testing.AllocsPerRun(50, func() { m.Reset(1) }); allocs != 0 {
		t.Errorf("Reset of a warm machine allocates %.1f objects, want 0", allocs)
	}
}
