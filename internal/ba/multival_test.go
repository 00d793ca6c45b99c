package ba_test

import (
	"fmt"
	"math/rand"
	"testing"

	"proxcensus/internal/adversary"
	"proxcensus/internal/ba"
	"proxcensus/internal/sim"
)

const mvDefault = -1 // default output when the binary BA decides 0

// mvBuilder uniformly constructs the two multivalued protocols.
type mvBuilder struct {
	name   string
	needs  int
	rounds func(kappa int) int
	build  func(setup *ba.Setup, kappa int, inputs []ba.Value) (*ba.Protocol, error)
}

func mvBuilders() []mvBuilder {
	return []mvBuilder{
		{ba.MultivaluedCoinDomain, 3, ba.MultivaluedOneShotRounds,
			func(s *ba.Setup, k int, in []ba.Value) (*ba.Protocol, error) {
				return ba.NewMultivaluedOneShot(s, k, in, mvDefault)
			}},
		{"mv-half", 2, ba.MultivaluedHalfRounds,
			func(s *ba.Setup, k int, in []ba.Value) (*ba.Protocol, error) {
				return ba.NewMultivaluedHalf(s, k, in, mvDefault)
			}},
	}
}

func TestMultivaluedOverheadRounds(t *testing.T) {
	// E6: the multivalued extension costs exactly +2 rounds for t<n/3
	// and +3 rounds for t<n/2 (Section 3.5).
	for _, kappa := range []int{4, 8, 9} {
		if got, want := ba.MultivaluedOneShotRounds(kappa), ba.OneShotRounds(kappa)+2; got != want {
			t.Errorf("MultivaluedOneShotRounds(%d) = %d, want %d", kappa, got, want)
		}
		if got, want := ba.MultivaluedHalfRounds(kappa), ba.HalfRounds(kappa)+3; got != want {
			t.Errorf("MultivaluedHalfRounds(%d) = %d, want %d", kappa, got, want)
		}
	}
}

func TestMultivaluedValidity(t *testing.T) {
	const kappa = 5
	for _, b := range mvBuilders() {
		for _, v := range []ba.Value{0, 1, 7, 100000} {
			t.Run(fmt.Sprintf("%s/v=%d", b.name, v), func(t *testing.T) {
				n, tc := 7, 2
				if b.needs == 2 {
					n, tc = 5, 2
				}
				setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, 21)
				if err != nil {
					t.Fatal(err)
				}
				proto, err := b.build(setup, kappa, constInputs(n, v))
				if err != nil {
					t.Fatal(err)
				}
				if proto.Rounds != b.rounds(kappa) {
					t.Fatalf("rounds = %d, want %d", proto.Rounds, b.rounds(kappa))
				}
				for _, adv := range []sim.Adversary{
					sim.Passive{},
					&adversary.Crash{Victims: adversary.FirstT(tc)},
				} {
					res, err := proto.Run(adv, 6)
					if err != nil {
						t.Fatalf("adversary %s: %v", adv.Name(), err)
					}
					if err := ba.CheckValidity(v, ba.Decisions(res)); err != nil {
						t.Errorf("adversary %s: %v", adv.Name(), err)
					}
					// Machines are single-use; rebuild for the next run.
					proto, err = b.build(setup, kappa, constInputs(n, v))
					if err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

func TestMultivaluedAgreementMixedInputs(t *testing.T) {
	const kappa, trials = 8, 15
	for _, b := range mvBuilders() {
		t.Run(b.name, func(t *testing.T) {
			n, tc := 7, 2
			if b.needs == 2 {
				n, tc = 5, 2
			}
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(int64(trial * 3)))
				inputs := make([]ba.Value, n)
				for i := range inputs {
					inputs[i] = rng.Intn(4) * 11 // values from {0, 11, 22, 33}
				}
				setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, int64(trial*37+5))
				if err != nil {
					t.Fatal(err)
				}
				proto, err := b.build(setup, kappa, inputs)
				if err != nil {
					t.Fatal(err)
				}
				res, err := proto.Run(&adversary.Crash{Victims: adversary.FirstT(tc)}, int64(trial))
				if err != nil {
					t.Fatal(err)
				}
				decisions := ba.Decisions(res)
				if err := ba.CheckAgreement(decisions); err != nil {
					t.Fatalf("trial %d inputs %v: %v", trial, inputs, err)
				}
				// The common decision must be an input value or the default
				// (no invented values).
				legal := map[ba.Value]bool{mvDefault: true}
				for _, v := range inputs[tc:] {
					legal[v] = true
				}
				if len(decisions) > 0 && !legal[decisions[0]] {
					t.Fatalf("trial %d: decided %d, not an honest input or default", trial, decisions[0])
				}
			}
		})
	}
}

func TestMultivaluedStrongUnanimityAmongHonest(t *testing.T) {
	// Honest parties agree on 42; corrupted parties push 13 hard. The
	// decision must be 42.
	const kappa = 6
	t.Run("oneshot", func(t *testing.T) {
		const n, tc = 7, 2
		setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, 11)
		if err != nil {
			t.Fatal(err)
		}
		inputs := constInputs(n, 42)
		proto, err := ba.NewMultivaluedOneShot(setup, kappa, inputs, mvDefault)
		if err != nil {
			t.Fatal(err)
		}
		adv := &adversary.Equivocator{
			Victims: adversary.FirstT(tc),
			A:       ba.TCValue{V: 13},
			B:       ba.TCValue{V: 13},
		}
		res, err := proto.Run(adv, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := ba.CheckValidity(42, ba.Decisions(res)); err != nil {
			t.Error(err)
		}
	})
	t.Run("half", func(t *testing.T) {
		const n, tc = 5, 2
		setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, 11)
		if err != nil {
			t.Fatal(err)
		}
		proto, err := ba.NewMultivaluedHalf(setup, kappa, constInputs(n, 42), mvDefault)
		if err != nil {
			t.Fatal(err)
		}
		res, err := proto.Run(&adversary.Crash{Victims: adversary.FirstT(tc)}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := ba.CheckValidity(42, ba.Decisions(res)); err != nil {
			t.Error(err)
		}
	})
}

func TestMultivaluedThresholdCoin(t *testing.T) {
	const kappa = 4
	for _, b := range mvBuilders() {
		t.Run(b.name, func(t *testing.T) {
			n, tc := 7, 2
			if b.needs == 2 {
				n, tc = 5, 2
			}
			setup, err := ba.NewSetup(n, tc, ba.CoinThreshold, 31)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := b.build(setup, kappa, constInputs(n, 3))
			if err != nil {
				t.Fatal(err)
			}
			res, err := proto.Run(&adversary.Crash{Victims: adversary.FirstT(tc)}, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := ba.CheckValidity(3, ba.Decisions(res)); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestMultivaluedResilienceValidation(t *testing.T) {
	setup12, err := ba.NewSetup(5, 2, ba.CoinIdeal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ba.NewMultivaluedOneShot(setup12, 4, constInputs(5, 0), mvDefault); err == nil {
		t.Error("multivalued one-shot with t >= n/3 must fail")
	}
	setupBadHalf, err := ba.NewSetup(4, 2, ba.CoinIdeal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ba.NewMultivaluedHalf(setupBadHalf, 4, constInputs(4, 0), mvDefault); err == nil {
		t.Error("multivalued half with t >= n/2 must fail")
	}
}

// TestMultivaluedEdgeCases table-drives the Turpin-Coan corner cases
// from Section 3.5: unanimous default (all-⊥) inputs, a full budget of
// t equivocating senders splitting the prefix, and the t < n/2
// variant's +3-round boundary at the smallest security parameters.
func TestMultivaluedEdgeCases(t *testing.T) {
	// The half-regime prefix costs exactly 3 extra rounds even at the
	// boundary kappas where the binary core is shortest.
	for _, kappa := range []int{1, 2, 3} {
		if got, want := ba.MultivaluedHalfRounds(kappa), ba.HalfRounds(kappa)+3; got != want {
			t.Errorf("MultivaluedHalfRounds(%d) = %d, want %d", kappa, got, want)
		}
		if got, want := ba.MultivaluedOneShotRounds(kappa), ba.OneShotRounds(kappa)+2; got != want {
			t.Errorf("MultivaluedOneShotRounds(%d) = %d, want %d", kappa, got, want)
		}
	}

	for _, b := range mvBuilders() {
		n, tc := 7, 2
		if b.needs == 2 {
			n, tc = 5, 2
		}
		// splitHonest gives the honest parties two distinct values, so no
		// candidate is forced and the equivocators can matter.
		splitHonest := make([]ba.Value, n)
		for i := tc; i < n; i++ {
			splitHonest[i] = 17
			if i >= tc+(n-tc)/2 {
				splitHonest[i] = 29
			}
		}
		cases := []struct {
			name   string
			kappa  int
			inputs []ba.Value
			adv    sim.Adversary
			// want < 0 with wantAny set means any agreed-upon legal value.
			want    ba.Value
			wantAny bool
		}{
			{
				name: "all-bot-inputs", kappa: 4,
				inputs: constInputs(n, mvDefault),
				adv:    &adversary.Crash{Victims: adversary.FirstT(tc)},
				want:   mvDefault,
			},
			{
				name: "all-bot-inputs-equivocators", kappa: 4,
				inputs: constInputs(n, mvDefault),
				adv: &adversary.Equivocator{
					Victims: adversary.FirstT(tc),
					A:       ba.TCValue{V: 5}, B: ba.TCValue{V: 9},
				},
				want: mvDefault,
			},
			{
				name: "t-equivocating-senders", kappa: 4,
				inputs: splitHonest,
				adv: &adversary.Equivocator{
					Victims: adversary.FirstT(tc),
					A:       ba.TCValue{V: 5}, B: ba.TCValue{V: 9},
				},
				wantAny: true,
			},
			{
				name: "boundary-kappa-1", kappa: 1,
				inputs: constInputs(n, 7),
				adv:    sim.Passive{},
				want:   7,
			},
			{
				name: "boundary-kappa-2-crash", kappa: 2,
				inputs: constInputs(n, 1000),
				adv:    &adversary.Crash{Victims: adversary.FirstT(tc)},
				want:   1000,
			},
		}
		for _, c := range cases {
			c := c
			t.Run(fmt.Sprintf("%s/%s", b.name, c.name), func(t *testing.T) {
				setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, 23)
				if err != nil {
					t.Fatal(err)
				}
				proto, err := b.build(setup, c.kappa, c.inputs)
				if err != nil {
					t.Fatal(err)
				}
				if proto.Rounds != b.rounds(c.kappa) {
					t.Fatalf("rounds = %d, want %d", proto.Rounds, b.rounds(c.kappa))
				}
				res, err := proto.Run(c.adv, 9)
				if err != nil {
					t.Fatal(err)
				}
				decisions := ba.Decisions(res)
				if err := ba.CheckAgreement(decisions); err != nil {
					t.Fatal(err)
				}
				if c.wantAny {
					// No invented values: the decision is an honest input or
					// the default, even with t senders equivocating.
					legal := map[ba.Value]bool{mvDefault: true}
					for _, v := range c.inputs[tc:] {
						legal[v] = true
					}
					if len(decisions) > 0 && !legal[decisions[0]] {
						t.Fatalf("decided %d, not an honest input or the default", decisions[0])
					}
					return
				}
				if err := ba.CheckValidity(c.want, decisions); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
