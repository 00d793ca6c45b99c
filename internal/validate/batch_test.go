package validate

import (
	"math/rand"
	"reflect"
	"testing"

	"proxcensus/internal/ba"
	"proxcensus/internal/coin"
	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/wire"
)

// inboundOf encodes a payload into an Inbound the way the transport
// would: wire bytes plus decode result.
func inboundOf(t testing.TB, from int, p sim.Payload) Inbound {
	t.Helper()
	raw, err := wire.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return Inbound{From: from, Raw: raw, Payload: p, Err: err}
}

// admitSplit screens a round one message per AdmitBatch call — the
// finest split of a batch, against which the whole-round call must be
// invariant.
func admitSplit(v *Validator, round int, in []Inbound) []bool {
	out := make([]bool, len(in))
	for i, m := range in {
		out[i] = admitOne(v, round, m)
	}
	return out
}

// reportsEqual compares two reports including evidence renderings.
func reportsEqual(a, b Report) bool {
	return a.Admitted == b.Admitted && a.Rejected == b.Rejected &&
		reflect.DeepEqual(a.Evidence, b.Evidence)
}

// halfSetup builds the ForHalf validator fixtures shared by the batch
// tests: n parties, threshold keys, signed votes.
func halfSetup(t testing.TB, n int) (*ba.Setup, Rules) {
	t.Helper()
	tc := (n - 1) / 2
	setup, err := ba.NewSetup(n, tc, ba.CoinThreshold, 7)
	if err != nil {
		t.Fatal(err)
	}
	return setup, ForHalf(n)
}

func signedVote(setup *ba.Setup, signer, v int) proxcensus.LinearVote {
	return proxcensus.LinearVote{
		V:     v,
		Share: threshsig.SignShare(setup.ProxSKs[signer], proxcensus.LinearSigmaMessage(v)),
	}
}

// TestBatchEquivalenceHonest: a clean round of signed votes must yield
// identical verdicts and reports whether it is screened in one call or
// one call per message.
func TestBatchEquivalenceHonest(t *testing.T) {
	setup, rules := halfSetup(t, 16)
	in := make([]Inbound, 0, 16)
	for i := 0; i < 16; i++ {
		in = append(in, inboundOf(t, i, signedVote(setup, i, i%2)))
	}
	vs, vb := New(rules), New(rules)
	want := admitSplit(vs, 1, in)
	got := vb.AdmitBatch(1, in, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts diverge:\n whole %v\n split %v", got, want)
	}
	for _, ok := range got {
		if !ok {
			t.Fatal("honest vote rejected")
		}
	}
	if !reportsEqual(vs.Report(), vb.Report()) {
		t.Fatalf("reports diverge:\n whole %s\n split %s", vb.Report().Summary(), vs.Report().Summary())
	}
}

// TestBatchEquivalenceAdversarial replays randomized adversarial
// rounds — forged shares, wrong-signer shares, duplicates,
// equivocations, bad senders, wrong-phase and malformed traffic,
// certificates and combined signatures — whole and split one message
// per call, across multiple rounds, and demands identical verdicts,
// counters and evidence.
func TestBatchEquivalenceAdversarial(t *testing.T) {
	setup, rules := halfSetup(t, 8)
	sigma1 := mustCombine(t, setup, 1)

	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vs, vb := New(rules), New(rules)
		for round := 1; round <= 6; round++ {
			in := buildAdversarialBatch(t, rng, setup, sigma1, round)
			want := admitSplit(vs, round, in)
			got := vb.AdmitBatch(round, in, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: verdicts diverge\n whole %v\n split %v", seed, round, got, want)
			}
		}
		if !reportsEqual(vs.Report(), vb.Report()) {
			t.Fatalf("seed %d: reports diverge\n whole %s\n split %s",
				seed, vb.Report().Summary(), vs.Report().Summary())
		}
	}
}

func mustCombine(t testing.TB, setup *ba.Setup, v int) threshsig.Signature {
	t.Helper()
	m := proxcensus.LinearSigmaMessage(v)
	shares := make([]threshsig.Share, 0, len(setup.ProxSKs))
	for _, sk := range setup.ProxSKs {
		shares = append(shares, threshsig.SignShare(sk, m))
	}
	sig, err := threshsig.CombineFiltered(setup.ProxPK, m, shares)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func buildAdversarialBatch(t testing.TB, rng *rand.Rand, setup *ba.Setup, sigma1 threshsig.Signature, round int) []Inbound {
	n := setup.N
	var in []Inbound
	count := 4 + rng.Intn(12)
	for k := 0; k < count; k++ {
		from := rng.Intn(n + 2)
		if from >= n {
			from = -1 + rng.Intn(2)*(n+3) // out-of-range sender
		}
		signer := rng.Intn(n)
		v := rng.Intn(2)
		var p sim.Payload
		switch rng.Intn(10) {
		case 0: // honest-shaped vote (wrong phase unless round%3==1)
			vote := signedVote(setup, signer, v)
			if rng.Intn(3) == 0 {
				vote.Share.MAC[0] ^= 1 // forged
			}
			p = vote
		case 1: // wrong-signer share
			vote := signedVote(setup, signer, v)
			p = proxcensus.LinearVote{V: v, Share: vote.Share}
		case 2: // combined sigma (phase 2/3 class)
			p = proxcensus.LinearSigma{V: 1, Sig: sigma1}
		case 3: // forged sigma
			bad := sigma1
			bad[0] ^= 1
			p = proxcensus.LinearSigma{V: 1, Sig: bad}
		case 4: // omega share
			p = proxcensus.LinearOmegaShare{
				V:     v,
				Share: threshsig.SignShare(setup.ProxSKs[signer], proxcensus.LinearOmegaMessage(v)),
			}
		case 5: // coin share for the round's instance
			inst := (round - 1) / 3
			p = coin.SharePayload{
				K:     inst,
				Share: threshsig.SignShare(setup.CoinSKs[signer], coin.InstanceMessage(ba.HalfCoinDomain, inst)),
			}
		case 6: // domain violation
			p = proxcensus.LinearVote{V: 7, Share: signedVote(setup, signer, 1).Share}
		case 7: // malformed bytes
			in = append(in, Inbound{From: from, Raw: []byte{0xff, 0x01}, Payload: nil, Err: wire.ErrBadTag})
			continue
		case 8: // equivocation fodder: vote for the opposite value
			p = signedVote(setup, signer, 1-v)
		case 9: // exact duplicate of an earlier message
			if len(in) > 0 {
				prev := in[rng.Intn(len(in))]
				in = append(in, prev)
				continue
			}
			p = signedVote(setup, signer, v)
		}
		if from < 0 || from >= n {
			in = append(in, inboundOf(t, from, p))
			continue
		}
		// Votes and shares mostly claim their signer as sender; sometimes
		// not.
		sender := signer
		if rng.Intn(4) == 0 {
			sender = rng.Intn(n)
		}
		in = append(in, inboundOf(t, sender, p))
	}
	return in
}

// TestBatchVerdictSliceReuse: passing a pooled verdict slice reuses its
// backing array.
func TestBatchVerdictSliceReuse(t *testing.T) {
	setup, rules := halfSetup(t, 8)
	v := New(rules)
	in := []Inbound{inboundOf(t, 0, signedVote(setup, 0, 1))}
	scratch := make([]bool, 0, 8)
	out := v.AdmitBatch(1, in, scratch)
	if len(out) != 1 || !out[0] {
		t.Fatalf("verdicts = %v", out)
	}
	if &out[0] != &scratch[:1][0] {
		t.Error("verdict slice did not reuse the caller's backing array")
	}
}

// TestBatchEvidenceMatchesSequential: equivocation evidence records the
// same rendered pair whether the two conflicting messages arrive in one
// call or in two.
func TestBatchEvidenceMatchesSequential(t *testing.T) {
	setup, rules := halfSetup(t, 8)
	in := []Inbound{
		inboundOf(t, 2, signedVote(setup, 2, 0)),
		inboundOf(t, 2, signedVote(setup, 2, 1)), // equivocates
	}
	vs, vb := New(rules), New(rules)
	admitSplit(vs, 1, in)
	vb.AdmitBatch(1, in, nil)
	es, eb := vs.Report().Evidence, vb.Report().Evidence
	if len(es) != 1 || !reflect.DeepEqual(es, eb) {
		t.Fatalf("evidence diverges:\n whole %v\n split %v", eb, es)
	}
}

// TestBatchSteadyStateAllocations: after warm-up, screening a full
// round of signed votes through AdmitBatch must not allocate. That
// holds with a forger too: its forged share is structurally sound, so
// the screen admits it at the cost of an honest one and leaves it to
// the machine, which drops it. A path that allocated would let one
// Byzantine sender buy garbage on every honest node each round.
func TestBatchSteadyStateAllocations(t *testing.T) {
	setup, rules := halfSetup(t, 16)
	for _, forger := range []int{-1, 5} { // -1: no forger
		v := New(rules)
		in := make([]Inbound, 0, 16)
		for i := 0; i < 16; i++ {
			vote := signedVote(setup, i, i%2)
			if i == forger {
				vote.Share.MAC[3] ^= 0xff
			}
			in = append(in, inboundOf(t, i, vote))
		}
		verdicts := make([]bool, 0, 16)
		round := 1
		run := func() {
			verdicts = v.AdmitBatch(round, in, verdicts[:0])
			for i, ok := range verdicts {
				if !ok {
					t.Fatalf("forger %d, round %d: sender %d verdict %t", forger, round, i, ok)
				}
			}
			round += 3 // the next vote round
		}
		for i := 0; i < 3; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("forger %d: AdmitBatch allocated %.1f objects per steady-state round, want 0", forger, allocs)
		}
	}
}
