package ba_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"proxcensus/internal/adversary"
	"proxcensus/internal/ba"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// resetFamily is one t < n/3 multivalued family as a reset test drives
// it: inputs per script, as the constructor and Protocol.Reset take
// them, and the adversary's payloads for the prefix rounds.
type resetFamily struct {
	name   string
	build  func(setup *ba.Setup, kappa int, inputs any) (*ba.Protocol, error)
	inputs func(script int, n int) any
	value  func(rng *rand.Rand) any
}

func resetFamilies() []resetFamily {
	vals := [][]ba.Value{{5, 5, 5, 5, 5, 5, 9}, {3, 8, 3, 8, 1, 8, 3}, {9, 9, 9, 2, 9, 9, 9}}
	return []resetFamily{
		{
			name: "digest",
			build: func(s *ba.Setup, k int, in any) (*ba.Protocol, error) {
				return ba.NewMultivaluedOneShot(s, k, in.([]ba.Value), mvDefault)
			},
			inputs: func(script, n int) any { return append([]ba.Value(nil), vals[script][:n]...) },
			value:  func(rng *rand.Rand) any { return ba.Value(rng.Intn(10)) },
		},
		{
			name: "payload",
			build: func(s *ba.Setup, k int, in any) (*ba.Protocol, error) {
				return ba.NewMultivaluedPayloadOneShot(s, k, in.([][]byte), nil)
			},
			inputs: func(script, n int) any {
				in := make([][]byte, n)
				for i := range in {
					in[i] = bytes.Repeat([]byte{byte(vals[script][i])}, 40+vals[script][i])
				}
				return in
			},
			value: func(rng *rand.Rand) any { v := rng.Intn(10); return bytes.Repeat([]byte{byte(v)}, 40+v) },
		},
	}
}

// resetAdversary corrupts victims and sends each party prefix messages
// of random values in rounds 1 and 2, then random echoes of the binary
// core, or garbage.
func resetAdversary(f resetFamily, victims []sim.PartyID) sim.Adversary {
	return &adversary.Random{Victims: victims, Gen: func(rng *rand.Rand, round int, _, _ sim.PartyID) sim.Payload {
		if rng.Intn(5) == 0 {
			return adversary.GarbagePayload(rng)
		}
		switch v := f.value(rng).(type) {
		case ba.Value:
			if round == 1 {
				return ba.TCValue{V: v}
			}
			if round == 2 {
				return ba.TCEcho{V: v, Valid: rng.Intn(4) != 0}
			}
		case []byte:
			if round == 1 {
				return ba.TCPayload{Data: v}
			}
			if round == 2 {
				return ba.TCPayloadEcho{Data: v, Valid: rng.Intn(4) != 0}
			}
		}
		return proxcensus.EchoPayload{Z: rng.Intn(2), H: rng.Intn(round)}
	}}
}

// TestProtocolResetMatchesNew: a multivalued protocol that ran one
// execution under an adversary, then one abandoned after round 2 and
// one abandoned mid-core, and was then Reset with new inputs, runs the
// next execution exactly as the constructor's protocol does — the same
// transcript and the same decisions — in both value domains and under
// both coins. The adversary corrupts different parties in every run,
// so every party's machines are reused.
func TestProtocolResetMatchesNew(t *testing.T) {
	const n, tc, kappa = 7, 2, 3
	victims := [][]sim.PartyID{{0, 1}, {5, 6}, {2, 4}, {1, 3}}
	for _, f := range resetFamilies() {
		for _, mode := range []ba.CoinMode{ba.CoinIdeal, ba.CoinThreshold} {
			t.Run(fmt.Sprintf("%s/%v", f.name, mode), func(t *testing.T) {
				setup, err := ba.NewSetup(n, tc, mode, 17)
				if err != nil {
					t.Fatal(err)
				}
				reused, err := f.build(setup, kappa, f.inputs(0, n))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := reused.Run(resetAdversary(f, victims[0]), 1); err != nil {
					t.Fatal(err)
				}
				for k, cut := range []int{2, 4} {
					if err := reused.Reset(f.inputs(1, n)); err != nil {
						t.Fatal(err)
					}
					short := *reused
					short.Rounds = cut
					if _, err := short.Run(resetAdversary(f, victims[1+k]), int64(2+k)); err == nil {
						t.Fatalf("an execution abandoned after round %d of %d produced outputs", cut, reused.Rounds)
					}
				}
				if err := reused.Reset(f.inputs(2, n)); err != nil {
					t.Fatal(err)
				}
				fresh, err := f.build(setup, kappa, f.inputs(2, n))
				if err != nil {
					t.Fatal(err)
				}
				run := func(p *ba.Protocol) (string, string) {
					rec := &sim.Recorder{}
					res, err := p.RunTraced(resetAdversary(f, victims[3]), 9, rec)
					if err != nil {
						t.Fatal(err)
					}
					return rec.Fingerprint(), fmt.Sprint(res.HonestOutputs())
				}
				gotTrace, gotOut := run(reused)
				wantTrace, wantOut := run(fresh)
				if gotTrace != wantTrace {
					t.Fatalf("transcript after Reset differs from the constructor's: %s", firstLineDiff(gotTrace, wantTrace))
				}
				if gotOut != wantOut {
					t.Fatalf("decisions after Reset %s, from the constructor %s", gotOut, wantOut)
				}
			})
		}
	}
}

// firstLineDiff renders the first line where two transcripts differ.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n got: %.300s\nwant: %.300s", i+1, gl, wl)
		}
	}
	return "no line differs"
}

// TestProtocolResetAllocations: resetting a warm protocol, to new
// inputs or to idle, allocates nothing.
func TestProtocolResetAllocations(t *testing.T) {
	const n, tc, kappa = 7, 2, 3
	setup, err := ba.NewSetup(n, tc, ba.CoinThreshold, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range resetFamilies() {
		proto, err := f.build(setup, kappa, f.inputs(0, n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := proto.Run(sim.Passive{}, 1); err != nil {
			t.Fatal(err)
		}
		inputs := f.inputs(1, n) // boxed once, as a caller holding its inputs does
		if allocs := testing.AllocsPerRun(50, func() {
			if err := proto.Reset(inputs); err != nil {
				t.Fatal(err)
			}
			if err := proto.Reset(nil); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Reset of a warm protocol allocates %.1f objects, want 0", f.name, allocs)
		}
	}
}

// TestProtocolResetRefusals: protocols without a reset path, and inputs
// of the other domain or the wrong length, are refused.
func TestProtocolResetRefusals(t *testing.T) {
	const n, tc, kappa = 7, 2, 3
	setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, 17)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := ba.NewOneShot(setup, kappa, constInputs(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	digest, err := ba.NewMultivaluedOneShot(setup, kappa, constInputs(n, 1), mvDefault)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ba.NewMultivaluedPayloadOneShot(setup, kappa, make([][]byte, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		proto  *ba.Protocol
		inputs any
	}{
		{"oneshot", oneShot, constInputs(n, 1)},
		{"digest with payloads", digest, make([][]byte, n)},
		{"payload with values", payload, constInputs(n, 1)},
		{"short inputs", digest, constInputs(n-1, 1)},
		{"oversize payload", payload, append(make([][]byte, n-1), make([]byte, ba.MaxPayloadBytes+1))},
		{"other type", digest, []int64{1}},
	} {
		if err := c.proto.Reset(c.inputs); err == nil {
			t.Errorf("%s: Reset accepted %T inputs", c.name, c.inputs)
		}
	}
}
