package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"proxcensus/internal/adversary"
	"proxcensus/internal/ba"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// TestSeedReplayDeterministic is the seed-replay regression test: a
// protocol rebuilt from the same setup seed and driven with the same
// execution seed must replay a byte-identical transcript (equal trace
// hashes) and equal decisions. This is the invariant the nomapiter /
// norandglobal / nowallclock analyzers exist to protect — if it breaks,
// the error-probability experiments stop being reproducible.
func TestSeedReplayDeterministic(t *testing.T) {
	cases := []struct {
		name  string
		n, t  int
		mode  ba.CoinMode
		build func(setup *ba.Setup, kappa int, inputs []ba.Value) (*ba.Protocol, error)
		kappa int
	}{
		{"oneshot", 7, 2, ba.CoinIdeal, ba.NewOneShot, 6},
		{"half", 5, 2, ba.CoinThreshold, ba.NewHalf, 4},
		{"fm", 4, 1, ba.CoinIdeal, ba.NewFM, 4},
	}
	const setupSeed, execSeed = 42, 1337
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (string, []ba.Value) {
				// Rebuild everything from seeds: machines are stateful,
				// so a replay must start from a fresh instantiation.
				setup, err := ba.NewSetup(tc.n, tc.t, tc.mode, setupSeed)
				if err != nil {
					t.Fatal(err)
				}
				inputs := make([]ba.Value, tc.n)
				for i := range inputs {
					inputs[i] = ba.Value(i % 2)
				}
				proto, err := tc.build(setup, tc.kappa, inputs)
				if err != nil {
					t.Fatal(err)
				}
				adv := &adversary.LateCrash{Victims: adversary.FirstT(tc.t), When: 2}
				rec := &sim.Recorder{}
				res, err := proto.RunTraced(adv, execSeed, rec)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256([]byte(rec.Fingerprint()))
				return hex.EncodeToString(sum[:]), ba.Decisions(res)
			}

			hash1, dec1 := run()
			hash2, dec2 := run()
			if hash1 != hash2 {
				t.Errorf("trace hash differs across identically seeded runs:\n  run 1: %s\n  run 2: %s", hash1, hash2)
			}
			if fmt.Sprint(dec1) != fmt.Sprint(dec2) {
				t.Errorf("decisions differ across identically seeded runs: %v vs %v", dec1, dec2)
			}
			if len(dec1) == 0 {
				t.Error("no honest decisions recorded")
			}
		})
	}
}

// TestOneShotGoldenTranscript pins the benchmark's sim_oneshot_n127
// shape bit for bit: the one-shot protocol at n = 3t+1 under the
// rushing ExpandAdaptiveSplit adversary, inputs alternating 0/1. The
// hashes were recorded at the commit before the engine stopped sorting
// inboxes, ExpandStep stopped tallying in maps and the adversary
// started refilling one buffer; a change that moves them changed an
// execution, not just its speed. (Under the ideal coin this adversary
// is deterministic, so seeds differ only through the decided value.)
func TestOneShotGoldenTranscript(t *testing.T) {
	cases := []struct {
		n, t, kappa int
		seed        int64
		want        string
	}{
		{127, 42, 8, 101, "90869412d431022ab76cbac41f2104e8f022dce0113a34af82e6a95ca6e75353"},
		{127, 42, 8, 102, "94d34b47db5e694d69d3750b9b84614538f97dc27f4f4a232527f8581a426a36"},
		{127, 42, 8, 103, "94d34b47db5e694d69d3750b9b84614538f97dc27f4f4a232527f8581a426a36"},
		{31, 10, 5, 7, "030acfc437338dc0fa3bd8b8e88757d93f2cbe197ce0f01d1987cc6bb024a316"},
		{31, 10, 5, 8, "4e1b6445f12e171b8f03c6ed13da57572cf36712e0e25f668ab9d5f0300f8375"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d_seed%d", tc.n, tc.seed), func(t *testing.T) {
			setup, err := ba.NewSetup(tc.n, tc.t, ba.CoinIdeal, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			inputs := make([]ba.Value, tc.n)
			for i := range inputs {
				inputs[i] = ba.Value(i % 2)
			}
			proto, err := ba.NewOneShot(setup, tc.kappa, inputs)
			if err != nil {
				t.Fatal(err)
			}
			adv := &adversary.ExpandAdaptiveSplit{N: tc.n, T: tc.t, Period: proto.Rounds}
			rec := &sim.Recorder{}
			res, err := proto.RunTraced(adv, tc.seed, rec)
			if err != nil {
				t.Fatal(err)
			}
			if got := transcriptHash(rec, res); got != tc.want {
				t.Errorf("transcript+outputs hash = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestExpandGoldenInboxOrder pins what the one-shot pin cannot see:
// the order inside an inbox. The adversary injects, in descending
// sender order, two conflicting echoes per (sender, recipient) — the
// straddle attack's echo and its value-flipped decoy — so each
// machine's first-echo-per-sender rule, and with it every Prox output
// grade, depends on the engine delivering by ascending sender with
// each sender's messages in injection order (swapping the pair moves
// the outputs from a (0,1)/(0,0) straddle to unanimous (0,8)).
// Recorded at the same commit as TestOneShotGoldenTranscript.
func TestExpandGoldenInboxOrder(t *testing.T) {
	const n, tc, rounds = 31, 10, 5
	machines := make([]sim.Machine, n)
	for i := range machines {
		machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, proxcensus.Value(i%2))
	}
	split := &adversary.ExpandAdaptiveSplit{N: n, T: tc, Period: rounds}
	adv := &adversary.Func{
		InitFunc: split.Init,
		ActFunc: func(round int, honest []sim.Message, env *sim.Env) []sim.Message {
			// Every attack message gets a decoy with the value flipped,
			// injected first for every third recipient; senders are
			// walked backwards.
			attack := split.Act(round, honest, env)
			var msgs []sim.Message
			for i := len(attack) - 1; i >= 0; i-- {
				m := attack[i]
				e, _ := m.Payload.(proxcensus.EchoPayload)
				decoy := m
				decoy.Payload = proxcensus.EchoPayload{Z: 1 - e.Z, H: e.H}
				if m.To%3 == 0 {
					m, decoy = decoy, m
				}
				msgs = append(msgs, m, decoy)
			}
			return msgs
		},
	}
	rec := &sim.Recorder{}
	res, err := sim.Run(sim.Config{N: n, T: tc, Rounds: rounds, Seed: 1, Tracer: rec}, machines, adv)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := transcriptHash(rec, res), "e9377f06c0951308c2380e633139dc5f2c2f572a9a0a4950802f8f0047bee45d"; got != want {
		t.Errorf("transcript+outputs hash = %s, want %s", got, want)
	}
}

// transcriptHash is the sha256 of an execution's canonical transcript
// followed by its honest outputs in party order.
func transcriptHash(rec *sim.Recorder, res *sim.Result) string {
	h := sha256.New()
	h.Write([]byte(rec.Fingerprint()))
	fmt.Fprint(h, res.HonestOutputs())
	return hex.EncodeToString(h.Sum(nil))
}
