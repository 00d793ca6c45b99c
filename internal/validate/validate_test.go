package validate

import (
	"reflect"
	"strings"
	"testing"

	"proxcensus/internal/ba"
	"proxcensus/internal/coin"
	"proxcensus/internal/crypto/sig"
	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/wire"
)

// admitOne screens a single message: a one-element batch through the
// one screen there is.
func admitOne(v *Validator, round int, m Inbound) bool {
	return v.AdmitBatch(round, []Inbound{m}, nil)[0]
}

// admitPayload encodes p and feeds it through the validator the way
// the transport does: raw bytes plus the decoded payload.
func admitPayload(t *testing.T, v *Validator, round, from int, p sim.Payload) bool {
	t.Helper()
	return admitOne(v, round, inboundOf(t, from, p))
}

func testSetup(t *testing.T, n, tc int) *ba.Setup {
	t.Helper()
	setup, err := ba.NewSetup(n, tc, ba.CoinThreshold, 7)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	return setup
}

func TestRejectSenderRange(t *testing.T) {
	v := New(General(4))
	echo := proxcensus.EchoPayload{Z: 1, H: 0}
	for _, from := range []int{-1, 4, 99} {
		if admitPayload(t, v, 1, from, echo) {
			t.Errorf("sender %d admitted", from)
		}
	}
	if admitPayload(t, v, 1, 2, echo) != true {
		t.Fatalf("in-range sender rejected")
	}
	rep := v.Report()
	if rep.Rejections(RejectSender) != 3 || rep.Admitted != 1 {
		t.Fatalf("report: %s", rep.Summary())
	}
}

func TestRejectMalformed(t *testing.T) {
	v := New(General(4))
	if admitOne(v, 1, Inbound{From: 0, Raw: []byte{0xff, 1, 2}, Err: wire.ErrBadTag}) {
		t.Fatal("undecodable payload admitted")
	}
	// A decoder bug handing over a nil payload without an error must
	// still be screened out.
	if admitOne(v, 1, Inbound{From: 0, Raw: []byte{}}) {
		t.Fatal("nil payload admitted")
	}
	if got := v.Report().Rejections(RejectMalformed); got != 2 {
		t.Fatalf("malformed rejections = %d, want 2", got)
	}
}

func TestRejectTypeForPhase(t *testing.T) {
	// One-shot κ=3: rounds 1..3 echoes, round 4 coin shares.
	setup := testSetup(t, 4, 1)
	v := New(ForOneShot(4, 3, 1, setup.Mode))
	vote := proxcensus.LinearVote{V: 0, Share: threshsig.SignShare(setup.ProxSKs[1], proxcensus.LinearSigmaMessage(0))}
	if admitPayload(t, v, 1, 1, vote) {
		t.Fatal("linear vote admitted in an echo round")
	}
	if !admitPayload(t, v, 1, 1, proxcensus.EchoPayload{Z: 1, H: 0}) {
		t.Fatal("echo rejected in echo round")
	}
	if admitPayload(t, v, 4, 1, proxcensus.EchoPayload{Z: 1, H: 0}) {
		t.Fatal("echo admitted in the coin round")
	}
	share := coin.SharePayload{K: 0, Share: threshsig.SignShare(setup.CoinSKs[2], coin.InstanceMessage(ba.OneShotCoinDomain, 0))}
	if !admitPayload(t, v, 4, 2, share) {
		t.Fatal("coin share rejected in coin round")
	}
	if got := v.Report().Rejections(RejectType); got != 2 {
		t.Fatalf("type rejections = %d, want 2", got)
	}
}

func TestIdealCoinRoundAllowsNothing(t *testing.T) {
	v := New(ForOneShot(4, 2, 1, ba.CoinIdeal))
	if admitPayload(t, v, 3, 0, proxcensus.EchoPayload{Z: 0, H: 0}) {
		t.Fatal("echo admitted in ideal-coin round")
	}
	share := coin.SharePayload{K: 0, Share: threshsig.Share{Signer: 0}}
	if admitPayload(t, v, 3, 0, share) {
		t.Fatal("coin share admitted in ideal-coin round")
	}
}

func TestRejectDomain(t *testing.T) {
	v := New(ForExpand(4, 3, 1))
	cases := []struct {
		name string
		p    sim.Payload
	}{
		{"value above range", proxcensus.EchoPayload{Z: 7, H: 0}},
		{"negative value", proxcensus.EchoPayload{Z: -2, H: 0}},
		{"negative grade", proxcensus.EchoPayload{Z: 1, H: -1}},
		// Round 1 echoes the grade-0 base case Prox_2.
		{"grade too high for round", proxcensus.EchoPayload{Z: 1, H: 1}},
	}
	for _, tc := range cases {
		if admitPayload(t, v, 1, 0, tc.p) {
			t.Errorf("%s admitted", tc.name)
		}
	}
	if got := v.Report().Rejections(RejectDomain); got != len(cases) {
		t.Fatalf("domain rejections = %d, want %d", got, len(cases))
	}
	// Round 2 reports Prox_3 pairs: grade 1 is now legal.
	if !admitPayload(t, v, 2, 0, proxcensus.EchoPayload{Z: 1, H: 1}) {
		t.Fatal("legal round-2 grade rejected")
	}
}

func TestRejectWrongCoinInstance(t *testing.T) {
	setup := testSetup(t, 4, 1)
	v := New(ForHalf(4))
	mk := func(k int) coin.SharePayload {
		return coin.SharePayload{K: k, Share: threshsig.SignShare(setup.CoinSKs[1], coin.InstanceMessage(ba.HalfCoinDomain, k))}
	}
	// Round 3 is iteration 0's coin round; instance 1 belongs to round 6.
	if admitPayload(t, v, 3, 1, mk(1)) {
		t.Fatal("future coin instance admitted")
	}
	if !admitPayload(t, v, 3, 1, mk(0)) {
		t.Fatal("current coin instance rejected")
	}
	if !admitPayload(t, v, 6, 1, mk(1)) {
		t.Fatal("instance 1 rejected in round 6")
	}
	if got := v.Report().Rejections(RejectDomain); got != 1 {
		t.Fatalf("domain rejections = %d, want 1", got)
	}
}

// TestProxcastPairCap: a dealer-signed set of up to
// proxcensus.MaxProxcastPairs pairs passes; a larger one is out of
// domain under every rule set. The dealer signatures inside are the
// machine's to verify (ba's TestForgedInputIsIgnored/ProxcastSet).
func TestProxcastPairCap(t *testing.T) {
	var seed [sig.Size]byte
	seed[0] = 0x5a
	_, sk := sig.KeyGen(0, seed)
	v := New(ForProxcast(4, 8))
	good := proxcensus.ProxcastPair{Z: 1, Sig: sig.Sign(sk, proxcensus.ProxcastMessage(1))}
	if !admitPayload(t, v, 1, 0, proxcensus.ProxcastSet{Pairs: []proxcensus.ProxcastPair{good}}) {
		t.Fatal("dealer-signed pair rejected")
	}
	three := proxcensus.ProxcastSet{Pairs: []proxcensus.ProxcastPair{good, good, good}}
	if admitPayload(t, v, 1, 2, three) {
		t.Fatal("oversized pair set admitted")
	}
	rep := v.Report()
	if rep.Rejections(RejectDomain) != 1 || rep.TotalRejected() != 1 {
		t.Fatalf("report: %s", rep.Summary())
	}
	// The pair cap is the protocol's, not the rule set's.
	if admitPayload(t, New(General(4)), 1, 2, three) {
		t.Fatal("oversized pair set admitted under General rules")
	}
}

func TestDuplicateCollapse(t *testing.T) {
	v := New(General(4))
	echo := proxcensus.EchoPayload{Z: 1, H: 0}
	if !admitPayload(t, v, 1, 0, echo) {
		t.Fatal("first copy rejected")
	}
	for i := 0; i < 5; i++ {
		if admitPayload(t, v, 1, 0, echo) {
			t.Fatal("duplicate admitted")
		}
	}
	// The same payload from a different sender is NOT a duplicate.
	if !admitPayload(t, v, 1, 1, echo) {
		t.Fatal("same payload from other sender rejected")
	}
	// A new round resets duplicate state.
	if !admitPayload(t, v, 2, 0, echo) {
		t.Fatal("same payload in next round rejected")
	}
	rep := v.Report()
	if rep.Rejections(RejectDuplicate) != 5 || rep.Admitted != 3 {
		t.Fatalf("report: %s", rep.Summary())
	}
}

func TestEquivocationDetection(t *testing.T) {
	v := New(General(4))
	if !admitPayload(t, v, 2, 3, proxcensus.EchoPayload{Z: 0, H: 1}) {
		t.Fatal("first echo rejected")
	}
	// Same sender, same round, different echo: equivocation.
	if admitPayload(t, v, 2, 3, proxcensus.EchoPayload{Z: 1, H: 1}) {
		t.Fatal("conflicting echo admitted")
	}
	rep := v.Report()
	if rep.Rejections(RejectEquivocation) != 1 {
		t.Fatalf("report: %s", rep.Summary())
	}
	if len(rep.Evidence) != 1 {
		t.Fatalf("evidence entries = %d, want 1", len(rep.Evidence))
	}
	e := rep.Evidence[0]
	if e.From != 3 || e.Round != 2 || e.Class != wire.ClassEcho {
		t.Fatalf("evidence = %+v", e)
	}
	if !strings.Contains(e.String(), "z=0") || !strings.Contains(e.String(), "z=1") {
		t.Fatalf("evidence rendering %q misses the conflicting values", e.String())
	}
	// Next round the sender starts fresh.
	if !admitPayload(t, v, 3, 3, proxcensus.EchoPayload{Z: 1, H: 1}) {
		t.Fatal("post-equivocation round rejected")
	}
}

func TestEquivocationPerInstanceSubKeys(t *testing.T) {
	setup := testSetup(t, 4, 1)
	// Permissive phase rules so both instances land in one round.
	v := New(General(4))
	mk := func(k int) coin.SharePayload {
		return coin.SharePayload{K: k, Share: threshsig.SignShare(setup.CoinSKs[1], coin.InstanceMessage(ba.HalfCoinDomain, k))}
	}
	// Shares for different instances are independent streams.
	if !admitPayload(t, v, 1, 1, mk(0)) || !admitPayload(t, v, 1, 1, mk(1)) {
		t.Fatal("distinct coin instances conflated")
	}
	if got := v.Report().Rejections(RejectEquivocation); got != 0 {
		t.Fatalf("spurious equivocation: %s", v.Report().Summary())
	}
}

func TestMultiInstanceClassesDontEquivocate(t *testing.T) {
	setup := testSetup(t, 4, 1)
	v := New(General(4))
	// Σ forwards for two different values in one round are legal.
	sigma := func(val int) proxcensus.LinearSigma {
		shares := make([]threshsig.Share, 0, 3)
		for i := 0; i < 3; i++ {
			shares = append(shares, threshsig.SignShare(setup.ProxSKs[i], proxcensus.LinearSigmaMessage(val)))
		}
		s, err := threshsig.Combine(setup.ProxPK, proxcensus.LinearSigmaMessage(val), shares)
		if err != nil {
			t.Fatalf("combine: %v", err)
		}
		return proxcensus.LinearSigma{V: val, Sig: s}
	}
	if !admitPayload(t, v, 1, 0, sigma(0)) || !admitPayload(t, v, 1, 0, sigma(1)) {
		t.Fatal("multi-value sigma forwarding flagged as equivocation")
	}
}

func TestEvidenceCapped(t *testing.T) {
	v := New(General(4))
	for round := 1; round <= evidenceCap+10; round++ {
		admitPayload(t, v, round, 0, proxcensus.EchoPayload{Z: 0, H: 0})
		admitPayload(t, v, round, 0, proxcensus.EchoPayload{Z: 1, H: 0})
	}
	rep := v.Report()
	if len(rep.Evidence) != evidenceCap {
		t.Fatalf("evidence grew to %d, cap is %d", len(rep.Evidence), evidenceCap)
	}
	if rep.Rejections(RejectEquivocation) != evidenceCap+10 {
		t.Fatalf("counter stopped at cap: %s", rep.Summary())
	}
}

func TestReportMergeAndSummary(t *testing.T) {
	var a, b Report
	a.Admitted = 3
	a.Rejected[RejectDomain] = 2
	b.Admitted = 4
	b.Rejected[RejectDuplicate] = 1
	b.Evidence = []Evidence{{From: 1, Round: 2, Class: wire.ClassEcho}}
	a.Merge(b)
	if a.Admitted != 7 || a.TotalRejected() != 3 || len(a.Evidence) != 1 {
		t.Fatalf("merge: %+v", a)
	}
	s := a.Summary()
	for _, want := range []string{"admitted=7", "rejected=3", "domain=2", "duplicate=1", "evidence=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}

func TestHalfPhaseTable(t *testing.T) {
	setup := testSetup(t, 4, 1)
	v := New(ForHalf(4))
	vote := proxcensus.LinearVote{V: 1, Share: threshsig.SignShare(setup.ProxSKs[0], proxcensus.LinearSigmaMessage(1))}
	if !admitPayload(t, v, 1, 0, vote) {
		t.Fatal("vote rejected in local round 1")
	}
	if admitPayload(t, v, 2, 0, vote) {
		t.Fatal("vote admitted in local round 2")
	}
	// Iteration 2 (global round 4) is local round 1 again.
	if !admitPayload(t, v, 4, 0, vote) {
		t.Fatal("vote rejected at iteration boundary")
	}
	omegaShare := proxcensus.LinearOmegaShare{V: 1, Share: threshsig.SignShare(setup.ProxSKs[0], proxcensus.LinearOmegaMessage(1))}
	if !admitPayload(t, v, 2, 0, omegaShare) {
		t.Fatal("omega share rejected in local round 2")
	}
	if got := v.Report().Rejections(RejectType); got != 1 {
		t.Fatalf("type rejections = %d, want 1", got)
	}
}

func TestGeneralRulesAdmitEverythingDecodable(t *testing.T) {
	v := New(General(4))
	payloads := []sim.Payload{
		proxcensus.EchoPayload{Z: 42, H: 9},
		proxcensus.LinearVote{V: 7, Share: threshsig.Share{Signer: 0}},
		ba.TCValue{V: 3},
		ba.TCEcho{V: 3, Valid: true},
	}
	for _, p := range payloads {
		if !admitPayload(t, v, 1, 0, p) {
			t.Errorf("general rules rejected %T", p)
		}
	}
}

// TestResetMatchesNew: a validator that screened one instance and was
// Reset screens the next exactly as a fresh one does. The first
// instance leaves every kind of state behind — a duplicate, an
// equivocation with its evidence, a wrong-phase message — and the
// second starts in the
// round the first ended in, with the same bytes, so a stale round
// number, sender slot or spill would reject honest traffic there.
func TestResetMatchesNew(t *testing.T) {
	const n = 4
	setup := testSetup(t, n, 1)
	rules := ForHalf(n)
	vote := func(from, v int) Inbound {
		return inboundOf(t, from, proxcensus.LinearVote{V: v, Share: threshsig.SignShare(setup.ProxSKs[from], proxcensus.LinearSigmaMessage(v))})
	}
	omega := func(from, v int) Inbound {
		return inboundOf(t, from, proxcensus.LinearOmegaShare{V: v, Share: threshsig.SignShare(setup.ProxSKs[from], proxcensus.LinearOmegaMessage(v))})
	}
	type round struct {
		r  int
		in []Inbound
	}
	first := []round{
		{1, []Inbound{vote(0, 1), vote(1, 1), vote(1, 1), vote(2, 0), vote(2, 1), omega(3, 1)}},
		{2, []Inbound{omega(0, 1), omega(1, 1), omega(2, 0), omega(2, 1), vote(3, 1)}},
	}
	second := []round{
		{2, []Inbound{omega(0, 1), omega(1, 1), omega(2, 0), omega(3, 1), omega(3, 0)}},
		{3, nil},
		{4, []Inbound{vote(0, 1), vote(1, 0), vote(2, 1), vote(2, 1), vote(3, 1)}},
	}
	screen := func(v *Validator, script []round) [][]bool {
		var out [][]bool
		for _, rd := range script {
			out = append(out, v.AdmitBatch(rd.r, rd.in, nil))
		}
		return out
	}

	reused := New(rules)
	screen(reused, first)
	if rep := reused.Report(); rep.Rejections(RejectDuplicate) == 0 || rep.Rejections(RejectEquivocation) == 0 ||
		rep.Rejections(RejectType) == 0 || len(rep.Evidence) == 0 {
		t.Fatalf("the first instance must leave a duplicate, an equivocation and a wrong-phase message: %s", rep.Summary())
	}
	reused.Reset()
	if reused.round != 0 {
		t.Fatalf("Reset left the screen at round %d, want 0 as New does", reused.round)
	}
	for i, s := range reused.senders {
		if s.stamp == reused.stamp || s.raw != nil || s.stream.payload != nil {
			t.Fatalf("sender %d's slot is still live or holds the first instance's message after Reset", i)
		}
	}
	fresh := New(rules)
	got, want := screen(reused, second), screen(fresh, second)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts after Reset %v, from New %v", got, want)
	}
	if !want[0][0] || !want[0][1] || want[0][4] {
		t.Fatalf("second instance's first round: verdicts %v, want the honest shares admitted and sender 3's second share rejected", want[0])
	}
	if g, w := reused.Report(), fresh.Report(); !reportsEqual(g, w) {
		t.Fatalf("report after Reset %s %v, from New %s %v", g.Summary(), g.Evidence, w.Summary(), w.Evidence)
	}
}
