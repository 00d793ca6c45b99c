package proxcensus_test

import (
	"fmt"
	"testing"

	"proxcensus/internal/adversary"
	"proxcensus/internal/crypto/sig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

func proxcastSeed() [sig.Size]byte {
	var s [sig.Size]byte
	s[0] = 0xd0
	return s
}

// runProxcast executes s-slot Proxcast with the given dealer behaviour.
func runProxcast(t *testing.T, n, tc, s int, dealer sim.PartyID, input int, adv sim.Adversary, pr bool) map[int]proxcensus.Result {
	t.Helper()
	pk, sk := sig.KeyGen(dealer, proxcastSeed())
	machines := proxcensus.NewProxcastMachines(proxcensus.ProxcastConfig{
		N: n, T: tc, Slots: s, Dealer: dealer,
		Input: input, DealerPK: pk, DealerSK: sk, PlayerReplaceable: pr,
	})
	res, err := sim.Run(sim.Config{N: n, T: tc, Rounds: s - 1, Seed: 7}, machines, adv)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := make(map[int]proxcensus.Result, len(res.Outputs))
	for p, o := range res.Outputs {
		out[p] = o.(proxcensus.Result)
	}
	return out
}

func TestProxcastHonestDealer(t *testing.T) {
	for _, s := range []int{2, 3, 4, 5, 6, 9} {
		for _, input := range []int{0, 1} {
			t.Run(fmt.Sprintf("s=%d/x=%d", s, input), func(t *testing.T) {
				got := runProxcast(t, 5, 4, s, 2, input, sim.Passive{}, false)
				for p, r := range got {
					want := proxcensus.Result{Value: input, Grade: proxcensus.MaxGrade(s)}
					if r != want {
						t.Errorf("party %d: %v, want %v", p, r, want)
					}
				}
			})
		}
	}
}

func TestProxcastHonestDealerWithByzantinePeers(t *testing.T) {
	// t < n with t = n-1: every party except the dealer and one receiver
	// may misbehave; validity must still hold for the honest receiver.
	const n, tc, s, dealer = 5, 3, 5, 0
	pk, _ := sig.KeyGen(dealer, proxcastSeed())
	_ = pk
	adv := &adversary.Crash{Victims: []sim.PartyID{1, 2, 3}}
	got := runProxcast(t, n, tc, s, dealer, 1, adv, false)
	for p, r := range got {
		want := proxcensus.Result{Value: 1, Grade: proxcensus.MaxGrade(s)}
		if r != want {
			t.Errorf("party %d: %v, want %v", p, r, want)
		}
	}
}

func TestProxcastEquivocatingDealer(t *testing.T) {
	for _, s := range []int{3, 4, 5, 6, 8, 9} {
		t.Run(fmt.Sprintf("s=%d", s), func(t *testing.T) {
			const n, tc, dealer = 6, 1, 0
			_, sk := sig.KeyGen(dealer, proxcastSeed())
			got := runProxcast(t, n, tc, s, dealer, 0, adversary.EquivocatingDealer(dealer, sk), false)
			honest := resultsOf(got)
			if err := proxcensus.CheckConsistency(s, honest); err != nil {
				t.Fatal(err)
			}
			// Everyone sees the contradiction by round 2, so no party can
			// sustain a singleton window of length 2g+1-b for g >= 1.
			for p, r := range got {
				if r.Grade > 1 {
					t.Errorf("party %d: grade %d under immediate equivocation", p, r.Grade)
				}
			}
		})
	}
}

func TestProxcastWithholdingDealer(t *testing.T) {
	for _, s := range []int{3, 5, 7, 9} {
		t.Run(fmt.Sprintf("s=%d", s), func(t *testing.T) {
			const n, tc, dealer, fav = 5, 1, 0, 3
			_, sk := sig.KeyGen(dealer, proxcastSeed())
			got := runProxcast(t, n, tc, s, dealer, 0, adversary.WithholdingDealer(dealer, fav, 1, sk), false)
			honest := resultsOf(got)
			if err := proxcensus.CheckConsistency(s, honest); err != nil {
				t.Fatal(err)
			}
			g := proxcensus.MaxGrade(s)
			if r := got[fav]; r.Grade != g || r.Value != 1 {
				t.Errorf("favourite: %v, want (1,%d)", r, g)
			}
			for p, r := range got {
				if p == fav {
					continue
				}
				if r.Grade != g-1 {
					t.Errorf("party %d: grade %d, want %d via forwarding", p, r.Grade, g-1)
				}
				// For odd s the grade-0 slot carries no value commitment.
				if r.Grade >= 1 && r.Value != 1 {
					t.Errorf("party %d: value %d, want 1", p, r.Value)
				}
			}
		})
	}
}

// TestProxcastLateContradictionGrades lets the run start clean and
// releases the second signature at a chosen round through a corrupted
// non-dealer.
func TestProxcastLateContradictionGrades(t *testing.T) {
	const n, tc, dealer, mole, s = 5, 2, 0, 1, 9
	_, sk := sig.KeyGen(dealer, proxcastSeed())
	for release := 2; release <= s-1; release++ {
		t.Run(fmt.Sprintf("release=%d", release), func(t *testing.T) {
			adv := adversary.LateReleaseDealer(dealer, mole, release, sk)
			got := runProxcast(t, n, tc, s, dealer, 0, adv, false)
			honest := resultsOf(got)
			if err := proxcensus.CheckConsistency(s, honest); err != nil {
				t.Fatal(err)
			}
			// The singleton window is rounds 1..release-1 (length
			// release-1); with odd s grade = floor((release-1)/2).
			want := (release - 1) / 2
			for p, r := range got {
				if r.Grade != want {
					t.Errorf("party %d: grade %d, want %d (window %d)", p, r.Grade, want, release-1)
				}
				if want >= 1 && r.Value != 0 {
					t.Errorf("party %d: value %d, want 0", p, r.Value)
				}
			}
		})
	}
}

func TestProxcastPlayerReplaceableQuota(t *testing.T) {
	// With the n-t forwarding quota, a pair whispered to a single party
	// in round 2 does not extend that party's singleton window.
	const n, tc, dealer, fav, s = 5, 2, 0, 3, 5
	_, sk := sig.KeyGen(dealer, proxcastSeed())
	got := runProxcast(t, n, tc, s, dealer, 0, adversary.WithholdingDealer(dealer, fav, 1, sk), true)
	honest := resultsOf(got)
	if err := proxcensus.CheckConsistency(s, honest); err != nil {
		t.Fatal(err)
	}
	// Round 1 singleton still counts for the favourite (round 1 is the
	// dealer's own), but rounds 2+ only count once n-t parties forward —
	// which they do, since all 3 honest parties re-send their sets. The
	// favourite's round-2 window now needs n-t=3 forwarders of the pair:
	// only the favourite itself forwarded it in round 2, so the window
	// breaks and grades must drop below the non-replaceable run.
	basic := runProxcast(t, n, tc, s, dealer, 0, adversary.WithholdingDealer(dealer, fav, 1, sk), false)
	if got[fav].Grade >= basic[fav].Grade {
		t.Errorf("player-replaceable grade %d should be below basic grade %d", got[fav].Grade, basic[fav].Grade)
	}
}

func TestProxcastIgnoresForgedSignatures(t *testing.T) {
	const n, tc, dealer, s = 4, 1, 0, 5
	forger := &adversary.Func{
		StrategyName: "forger",
		InitFunc:     func(env *sim.Env) { env.Corrupt(1) },
		ActFunc: func(round int, _ []sim.Message, env *sim.Env) []sim.Message {
			var bad sig.Signature
			bad[3] = 0xee
			var msgs []sim.Message
			for to := 0; to < env.N(); to++ {
				msgs = append(msgs, sim.Message{From: 1, To: to, Payload: proxcensus.ProxcastSet{
					Pairs: []proxcensus.ProxcastPair{{Z: 1, Sig: bad}},
				}})
			}
			return msgs
		},
	}
	got := runProxcast(t, n, tc, s, dealer, 0, forger, false)
	for p, r := range got {
		want := proxcensus.Result{Value: 0, Grade: proxcensus.MaxGrade(s)}
		if r != want {
			t.Errorf("party %d: %v, want %v (forged pair must be ignored)", p, r, want)
		}
	}
}
