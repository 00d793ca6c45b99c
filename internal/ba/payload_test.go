package ba_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"proxcensus/internal/adversary"
	"proxcensus/internal/ba"
	"proxcensus/internal/sim"
)

func constPayloads(n int, data []byte) [][]byte {
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = data
	}
	return inputs
}

func TestPayloadRoundBudget(t *testing.T) {
	// The ℓ-bit prefix costs exactly the digest prefix's +2 rounds: the
	// lift changes what travels, never how long it takes.
	const n, tc = 7, 2
	setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, kappa := range []int{1, 2, 4, 8} {
		proto, err := ba.NewMultivaluedPayloadOneShot(setup, kappa, constPayloads(n, []byte("x")), nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := ba.MultivaluedOneShotRounds(kappa); proto.Rounds != want {
			t.Errorf("kappa=%d: rounds = %d, want %d", kappa, proto.Rounds, want)
		}
	}
}

func TestPayloadValidity(t *testing.T) {
	const n, tc, kappa = 7, 2, 5
	for _, size := range []int{1, 64, 1024, 4096} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			input := bytes.Repeat([]byte{0x5e}, size)
			for _, adv := range []sim.Adversary{
				sim.Passive{},
				&adversary.Crash{Victims: adversary.FirstT(tc)},
			} {
				setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, 21)
				if err != nil {
					t.Fatal(err)
				}
				proto, err := ba.NewMultivaluedPayloadOneShot(setup, kappa, constPayloads(n, input), nil)
				if err != nil {
					t.Fatal(err)
				}
				res, err := proto.Run(adv, 6)
				if err != nil {
					t.Fatalf("adversary %s: %v", adv.Name(), err)
				}
				if err := ba.CheckPayloadValidity(input, ba.PayloadDecisions(res)); err != nil {
					t.Errorf("adversary %s: %v", adv.Name(), err)
				}
			}
		})
	}
}

func TestPayloadAgreementMixedInputs(t *testing.T) {
	const n, tc, kappa, trials = 7, 2, 8, 10
	vocab := make([][]byte, 4)
	for i := range vocab {
		vocab[i] = bytes.Repeat([]byte{byte('a' + i)}, 1024)
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial * 3)))
		inputs := make([][]byte, n)
		for i := range inputs {
			inputs[i] = vocab[rng.Intn(len(vocab))]
		}
		setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, int64(trial*37+5))
		if err != nil {
			t.Fatal(err)
		}
		proto, err := ba.NewMultivaluedPayloadOneShot(setup, kappa, inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := proto.Run(&adversary.Crash{Victims: adversary.FirstT(tc)}, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		decisions := ba.PayloadDecisions(res)
		if err := ba.CheckPayloadAgreement(decisions); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// No invented bytes: the decision is an honest input or the
		// default.
		if len(decisions) > 0 && decisions[0] != nil {
			legal := false
			for _, in := range inputs[tc:] {
				if bytes.Equal(decisions[0], in) {
					legal = true
					break
				}
			}
			if !legal {
				t.Fatalf("trial %d: decided %d bytes that no honest party proposed", trial, len(decisions[0]))
			}
		}
	}
}

// TestPayloadEdgeCases extends TestMultivaluedEdgeCases to the ℓ-bit
// family at kilobyte sizes: unanimous-⊥ inputs, a full budget of t
// payload-equivocating senders, and the size-cap boundary.
func TestPayloadEdgeCases(t *testing.T) {
	const n, tc = 7, 2
	kb := func(b byte) []byte { return bytes.Repeat([]byte{b}, 1024) }

	// splitHonest mirrors the digest edge-case table: two honest camps,
	// so no candidate is forced and the equivocators can matter.
	splitHonest := make([][]byte, n)
	for i := tc; i < n; i++ {
		splitHonest[i] = kb('q')
		if i >= tc+(n-tc)/2 {
			splitHonest[i] = kb('z')
		}
	}

	cases := []struct {
		name    string
		inputs  [][]byte
		adv     sim.Adversary
		want    []byte // nil means the ⊥ default
		wantAny bool
	}{
		{
			name:   "all-bot-inputs",
			inputs: constPayloads(n, nil),
			adv:    &adversary.Crash{Victims: adversary.FirstT(tc)},
			want:   nil,
		},
		{
			name:   "all-bot-inputs-payload-equivocators",
			inputs: constPayloads(n, nil),
			adv: &adversary.Equivocator{
				Victims: adversary.FirstT(tc),
				A:       ba.TCPayload{Data: kb('a')},
				B:       ba.TCPayload{Data: kb('b')},
			},
			want: nil,
		},
		{
			name:   "t-payload-equivocating-senders",
			inputs: splitHonest,
			adv: &adversary.Equivocator{
				Victims: adversary.FirstT(tc),
				A:       ba.TCPayload{Data: kb('a')},
				B:       ba.TCPayload{Data: kb('b')},
			},
			wantAny: true,
		},
		{
			name:   "unanimous-kilobyte",
			inputs: constPayloads(n, kb('u')),
			adv:    sim.Passive{},
			want:   kb('u'),
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, 23)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := ba.NewMultivaluedPayloadOneShot(setup, 4, c.inputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := proto.Run(c.adv, 9)
			if err != nil {
				t.Fatal(err)
			}
			decisions := ba.PayloadDecisions(res)
			if err := ba.CheckPayloadAgreement(decisions); err != nil {
				t.Fatal(err)
			}
			if c.wantAny {
				if len(decisions) > 0 && decisions[0] != nil {
					legal := false
					for _, in := range c.inputs[tc:] {
						if bytes.Equal(decisions[0], in) {
							legal = true
							break
						}
					}
					if !legal {
						t.Fatalf("decided %d invented bytes", len(decisions[0]))
					}
				}
				return
			}
			if len(decisions) == 0 {
				t.Fatal("no decisions")
			}
			if !bytes.Equal(decisions[0], c.want) {
				t.Fatalf("decided %d bytes, want %d", len(decisions[0]), len(c.want))
			}
		})
	}
}

func TestPayloadSizeCapBoundary(t *testing.T) {
	const n, tc = 4, 1
	setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, 7)
	if err != nil {
		t.Fatal(err)
	}
	over := make([]byte, ba.MaxPayloadBytes+1)
	inputs := constPayloads(n, []byte("ok"))
	inputs[2] = over
	if _, err := ba.NewMultivaluedPayloadOneShot(setup, 2, inputs, nil); err == nil {
		t.Error("input over MaxPayloadBytes accepted")
	}
	if _, err := ba.NewMultivaluedPayloadOneShot(setup, 2, constPayloads(n, []byte("ok")), over); err == nil {
		t.Error("default payload over MaxPayloadBytes accepted")
	}
	// Exactly at the cap runs end to end (one short kappa keeps the
	// megabyte broadcast round affordable).
	atCap := bytes.Repeat([]byte{0xc4}, ba.MaxPayloadBytes)
	proto, err := ba.NewMultivaluedPayloadOneShot(setup, 1, constPayloads(n, atCap), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := proto.Run(sim.Passive{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ba.CheckPayloadValidity(atCap, ba.PayloadDecisions(res)); err != nil {
		t.Error(err)
	}
}

func TestPayloadResilienceValidation(t *testing.T) {
	setup12, err := ba.NewSetup(5, 2, ba.CoinIdeal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ba.NewMultivaluedPayloadOneShot(setup12, 4, constPayloads(5, nil), nil); err == nil {
		t.Error("payload one-shot with t >= n/3 must fail")
	}
	good, err := ba.NewSetup(7, 2, ba.CoinIdeal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ba.NewMultivaluedPayloadOneShot(good, 0, constPayloads(7, nil), nil); err == nil {
		t.Error("kappa 0 accepted")
	}
	if _, err := ba.NewMultivaluedPayloadOneShot(good, 4, constPayloads(6, nil), nil); err == nil {
		t.Error("input-count mismatch accepted")
	}
	if _, err := ba.NewMultivaluedPayloadOneShot(nil, 4, constPayloads(7, nil), nil); err == nil {
		t.Error("nil setup accepted")
	}
}

// TestPayloadDigestDifferential pins the equivalence the payload family
// was built to preserve: on isomorphic proposal streams — payload
// inputs and their rank under an order-preserving injection into the
// digest domain — the payload protocol and the digest protocol decide
// the SAME point of the input lattice under the same seeds and the
// same adversary placements. The two families share
// ba.MultivaluedCoinDomain, so under one setup seed their binary cores
// flip byte-identical coins; everything left to check is the prefix.
func TestPayloadDigestDifferential(t *testing.T) {
	const n, tc, kappa, trials = 7, 2, 5, 12
	vocab := make([][]byte, 4)
	for i := range vocab {
		vocab[i] = bytes.Repeat([]byte{byte('a' + i)}, 1024) // rank i in lexicographic order
	}
	rankOf := func(p []byte) ba.Value {
		for i, v := range vocab {
			if bytes.Equal(p, v) {
				return ba.Value(i)
			}
		}
		t.Fatalf("payload outside vocabulary")
		return -1
	}

	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial*13 + 1)))
		payloadIn := make([][]byte, n)
		digestIn := make([]ba.Value, n)
		for i := range payloadIn {
			payloadIn[i] = vocab[rng.Intn(len(vocab))]
			digestIn[i] = rankOf(payloadIn[i])
		}
		advs := []struct {
			name    string
			payload sim.Adversary
			digest  sim.Adversary
		}{
			{"passive", sim.Passive{}, sim.Passive{}},
			{"crash",
				&adversary.Crash{Victims: adversary.FirstT(tc)},
				&adversary.Crash{Victims: adversary.FirstT(tc)}},
			{"equivocator",
				&adversary.Equivocator{Victims: adversary.FirstT(tc),
					A: ba.TCPayload{Data: vocab[0]}, B: ba.TCPayload{Data: vocab[3]}},
				&adversary.Equivocator{Victims: adversary.FirstT(tc),
					A: ba.TCValue{V: 0}, B: ba.TCValue{V: 3}}},
		}
		for _, pair := range advs {
			seed := int64(trial*101 + 7)
			setupP, err := ba.NewSetup(n, tc, ba.CoinIdeal, seed)
			if err != nil {
				t.Fatal(err)
			}
			setupD, err := ba.NewSetup(n, tc, ba.CoinIdeal, seed)
			if err != nil {
				t.Fatal(err)
			}
			protoP, err := ba.NewMultivaluedPayloadOneShot(setupP, kappa, payloadIn, nil)
			if err != nil {
				t.Fatal(err)
			}
			protoD, err := ba.NewMultivaluedOneShot(setupD, kappa, digestIn, -1)
			if err != nil {
				t.Fatal(err)
			}
			runSeed := int64(trial)
			resP, err := protoP.Run(pair.payload, runSeed)
			if err != nil {
				t.Fatal(err)
			}
			resD, err := protoD.Run(pair.digest, runSeed)
			if err != nil {
				t.Fatal(err)
			}
			decP := ba.PayloadDecisions(resP)
			decD := ba.Decisions(resD)
			if err := ba.CheckPayloadAgreement(decP); err != nil {
				t.Fatalf("trial %d %s: payload %v", trial, pair.name, err)
			}
			if err := ba.CheckAgreement(decD); err != nil {
				t.Fatalf("trial %d %s: digest %v", trial, pair.name, err)
			}
			if len(decP) == 0 || len(decD) == 0 {
				t.Fatalf("trial %d %s: empty decisions (payload %d, digest %d)", trial, pair.name, len(decP), len(decD))
			}
			var want []byte // digest decision mapped back through the injection
			if decD[0] >= 0 {
				want = vocab[decD[0]]
			}
			if !bytes.Equal(decP[0], want) {
				t.Fatalf("trial %d %s: payload path decided %d bytes, digest path decided rank %d — families diverged",
					trial, pair.name, len(decP[0]), decD[0])
			}
		}
	}
}
