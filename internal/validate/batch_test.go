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
	return setup, ForHalf(n, setup.CoinPK, setup.ProxPK)
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

// TestBatchVerifyFallback: a batch containing exactly one forged share
// must reject only the forger and admit all honest senders, with
// Report counts identical to screening each share in a call of its own.
func TestBatchVerifyFallback(t *testing.T) {
	setup, rules := halfSetup(t, 16)
	in := make([]Inbound, 0, 16)
	for i := 0; i < 16; i++ {
		vote := signedVote(setup, i, 1)
		if i == 5 {
			vote.Share.MAC[3] ^= 0xff // the forger
		}
		in = append(in, inboundOf(t, i, vote))
	}
	vb := New(rules)
	got := vb.AdmitBatch(1, in, nil)
	for i, ok := range got {
		if want := i != 5; ok != want {
			t.Errorf("sender %d: verdict %t, want %t", i, ok, want)
		}
	}
	vs := New(rules)
	want := admitSplit(vs, 1, in)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts diverge from per-share calls:\n whole %v\n split %v", got, want)
	}
	if !reportsEqual(vs.Report(), vb.Report()) {
		t.Fatalf("reports diverge:\n whole %s\n split %s", vb.Report().Summary(), vs.Report().Summary())
	}
	rep := vb.Report()
	if rep.Admitted != 15 || rep.Rejections(RejectSignature) != 1 {
		t.Fatalf("report = %s, want 15 admitted / 1 signature reject", rep.Summary())
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
		// Votes and shares mostly claim their signer as sender so their
		// signatures get checked; sometimes not.
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

// TestCertValidDuplicateBeforeValid: regression for the linear-pass
// rewrite — a cert padding a signer with an invalid share before that
// signer's valid one must still count the signer as spent (first
// occurrence wins), and duplicates must never double-count.
func TestCertValidDuplicateBeforeValid(t *testing.T) {
	setup, _ := halfSetup(t, 8)
	pk := setup.ProxPK
	m := proxcensus.LinearSigmaMessage(1)
	th := pk.Threshold()
	good := make([]threshsig.Share, 0, 8)
	for _, sk := range setup.ProxSKs {
		good = append(good, threshsig.SignShare(sk, m))
	}

	t.Run("honest cert passes", func(t *testing.T) {
		if !certValid(pk, m, good[:th]) {
			t.Fatal("honest cert rejected")
		}
	})
	t.Run("duplicate before valid burns the signer", func(t *testing.T) {
		bad := good[0]
		bad.MAC[0] ^= 1
		// signer 0 appears invalid first, valid second: the first
		// occurrence is the one judged, so signer 0 contributes nothing
		// and the cert must fall below threshold.
		shares := append([]threshsig.Share{bad}, good[:th]...)
		if certValid(pk, m, shares) {
			t.Fatal("cert with burned first occurrence passed at threshold-1 distinct")
		}
		// One extra distinct signer restores the threshold.
		shares = append(shares, good[th])
		if !certValid(pk, m, shares) {
			t.Fatal("cert with threshold distinct valid signers rejected")
		}
	})
	t.Run("valid duplicates do not double count", func(t *testing.T) {
		shares := append([]threshsig.Share{}, good[:th-1]...)
		shares = append(shares, good[0], good[0])
		if certValid(pk, m, shares) {
			t.Fatal("duplicated valid share double-counted")
		}
	})
	t.Run("out of range signers are ignored", func(t *testing.T) {
		shares := append([]threshsig.Share{{Signer: -1}, {Signer: 99}}, good[:th]...)
		if !certValid(pk, m, shares) {
			t.Fatal("out-of-range shares poisoned a valid cert")
		}
	})
}

// TestCertValidLargeN exercises the heap-allocated bitmap past the
// stack's 1024-signer capacity.
func TestCertValidLargeN(t *testing.T) {
	n := 1100
	pk, sks, err := threshsig.Deal(n, 3, [32]byte{42})
	if err != nil {
		t.Fatal(err)
	}
	m := []byte("large-n cert message")
	shares := []threshsig.Share{
		threshsig.SignShare(sks[0], m),
		threshsig.SignShare(sks[1070], m),
		threshsig.SignShare(sks[1070], m), // duplicate high signer
		threshsig.SignShare(sks[512], m),
	}
	if !certValid(pk, m, shares) {
		t.Fatal("valid large-n cert rejected")
	}
	if certValid(pk, m, shares[:2]) {
		t.Fatal("two distinct signers passed threshold 3")
	}
	if certValid(pk, m, shares[1:3]) {
		t.Fatal("duplicate signer double-counted in spill bitmap")
	}
}

// TestBatchSteadyStateAllocations: after warm-up, screening a full
// round of signed votes through AdmitBatch must not allocate. That
// holds with a forger too: rejecting its forged share must cost no
// more than admitting an honest one. A rejection path that allocated
// would let one Byzantine sender buy garbage on every honest node each
// round.
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
				if ok != (i != forger) {
					t.Fatalf("forger %d, round %d: sender %d verdict %t", forger, round, i, ok)
				}
			}
			round += 3 // the next vote round
		}
		for i := 0; i < 3; i++ {
			run() // warm the signed-message cache
		}
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("forger %d: AdmitBatch allocated %.1f objects per steady-state round, want 0", forger, allocs)
		}
	}
}
