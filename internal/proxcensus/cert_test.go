package proxcensus

import (
	"testing"

	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/sim"
)

// TestLinearCertMode exercises the PKI wire format end to end: one
// party forms Σ and Ω from shares and forwards explicit certificates;
// a second party must reconstruct the signatures from the received
// share sets.
func TestLinearCertMode(t *testing.T) {
	const n, tc, r = 3, 1, 3
	pk, sks := dealHalf(t, n, tc)

	leader := NewLinearMachine(n, tc, r, 0, pk, sks[0]).UseExplicitCertificates()
	follower := NewLinearMachine(n, tc, r, 1, pk, sks[2]).UseExplicitCertificates()

	dLeader := newLinearDriver(leader, 0)
	dFollower := newLinearDriver(follower, 2)

	// Round 1: the leader receives the missing vote share (from the
	// Byzantine party 1) and forms Σ_0; the follower hears nothing.
	dLeader.step(1, []sim.Message{vote(pk, sks[1], 1, 0)})
	dFollower.step(1, nil)

	// The leader's round-2 sends must include an explicit certificate.
	var cert *LinearSigmaCert
	var omegaShare0 *LinearOmegaShare
	for _, s := range dLeader.pending {
		switch p := s.Payload.(type) {
		case LinearSigmaCert:
			cp := p
			cert = &cp
		case LinearOmegaShare:
			op := p
			omegaShare0 = &op
		case LinearSigma:
			t.Fatal("cert mode must not emit combined signatures")
		}
	}
	if cert == nil {
		t.Fatal("leader did not forward a sigma certificate")
	}
	if len(cert.Shares) != pk.Threshold() {
		t.Fatalf("certificate has %d shares, want threshold %d", len(cert.Shares), pk.Threshold())
	}
	if cert.SigCount() != pk.Threshold() {
		t.Fatalf("SigCount = %d, want %d (the factor-n blowup)", cert.SigCount(), pk.Threshold())
	}
	if cert.ByteSize() <= threshsig.Size {
		t.Fatal("ByteSize implausibly small")
	}
	if omegaShare0 == nil {
		t.Fatal("leader did not attest its singleton round-1 view")
	}

	// Round 2: the follower receives the certificate and must
	// reconstruct Σ_0 (the combineCert path), plus omega shares from
	// the leader and the Byzantine party to form Ω_0.
	dFollower.step(2, []sim.Message{
		{From: 0, Payload: *cert},
		{From: 0, Payload: *omegaShare0},
		omegaShareMsg(sks[1], 1, 0),
	})
	dLeader.step(2, []sim.Message{omegaShareMsg(sks[1], 1, 0)})

	dFollower.step(3, nil)
	dLeader.step(3, nil)

	outF, _ := follower.Output()
	if want := (Result{0, 1}); outF != want {
		t.Fatalf("follower output %v, want %v (Σ via certificate at round 2)", outF, want)
	}
	outL, _ := leader.Output()
	if want := (Result{0, 2}); outL != want {
		t.Fatalf("leader output %v, want %v", outL, want)
	}
}

// omegaShareMsg builds an omega-share message (helper distinct from the
// one in linear_test to keep this file self-contained).
func omegaShareMsg(sk *threshsig.SecretKey, from sim.PartyID, v Value) sim.Message {
	return sim.Message{From: from, Payload: LinearOmegaShare{V: v, Share: threshsig.SignShare(sk, LinearOmegaMessage(v))}}
}

// TestLinearCertModeRejectsBadCertificates: under-threshold, duplicate-
// signer and wrong-message certificates must not create signatures.
func TestLinearCertModeRejectsBadCertificates(t *testing.T) {
	const n, tc, r = 3, 1, 3
	pk, sks := dealHalf(t, n, tc)
	m := NewLinearMachine(n, tc, r, 0, pk, sks[2]).UseExplicitCertificates()
	d := newLinearDriver(m, 2)

	short := LinearSigmaCert{V: 1, Shares: []threshsig.Share{
		threshsig.SignShare(sks[1], LinearSigmaMessage(1)),
	}}
	dup := LinearSigmaCert{V: 1, Shares: []threshsig.Share{
		threshsig.SignShare(sks[1], LinearSigmaMessage(1)),
		threshsig.SignShare(sks[1], LinearSigmaMessage(1)),
	}}
	wrongMsg := LinearSigmaCert{V: 1, Shares: []threshsig.Share{
		threshsig.SignShare(sks[0], LinearSigmaMessage(0)), // share on 0 claimed for 1
		threshsig.SignShare(sks[1], LinearSigmaMessage(1)),
	}}
	outOfRange := LinearSigmaCert{V: 1, Shares: []threshsig.Share{
		{Signer: 99},
		threshsig.SignShare(sks[1], LinearSigmaMessage(1)),
	}}
	d.step(1, []sim.Message{
		{From: 1, Payload: short},
		{From: 1, Payload: dup},
		{From: 1, Payload: wrongMsg},
		{From: 1, Payload: outOfRange},
		vote(pk, sks[0], 0, 0),
	})
	d.step(2, []sim.Message{omegaShareMsg(sks[0], 0, 0)})
	d.step(3, nil)
	out, _ := m.Output()
	// All bad certificates for value 1 ignored: the machine reaches the
	// top slot for value 0 as if they never arrived.
	if want := (Result{0, 2}); out != want {
		t.Fatalf("output %v, want %v", out, want)
	}
}

// TestLinearCertModeOmegaCert: an Ω certificate is forwarded and
// reconstructed too.
func TestLinearCertModeOmegaCert(t *testing.T) {
	const n, tc, r = 3, 1, 4
	pk, sks := dealHalf(t, n, tc)
	m := NewLinearMachine(n, tc, r, 1, pk, sks[2]).UseExplicitCertificates()
	d := newLinearDriver(m, 2)

	sigmaCert := LinearSigmaCert{V: 0, Shares: []threshsig.Share{
		threshsig.SignShare(sks[0], LinearSigmaMessage(0)),
		threshsig.SignShare(sks[1], LinearSigmaMessage(0)),
	}}
	omegaCert := LinearOmegaCert{V: 0, Shares: []threshsig.Share{
		threshsig.SignShare(sks[0], LinearOmegaMessage(0)),
		threshsig.SignShare(sks[1], LinearOmegaMessage(0)),
	}}
	d.step(1, []sim.Message{{From: 0, Payload: sigmaCert}})
	d.step(2, []sim.Message{{From: 0, Payload: omegaCert}})
	// The machine must re-forward the omega certificate it accepted.
	forwarded := false
	for _, s := range d.pending {
		if _, ok := s.Payload.(LinearOmegaCert); ok {
			forwarded = true
		}
	}
	if !forwarded {
		t.Error("accepted omega certificate was not re-forwarded in cert form")
	}
	d.step(3, nil)
	d.step(4, nil)
	out, _ := m.Output()
	// Σ_0 by round 1 <= r-g, Ω_0 by round 2 <= r-g+1, no conflict:
	// grade r-1 = 3 requires Σ by round 1 — satisfied.
	if want := (Result{0, 3}); out != want {
		t.Fatalf("output %v, want %v", out, want)
	}
}

// TestCombineCertDuplicateBeforeValid: combineCert is the one check of
// an explicit certificate — the ingress screen verifies none. Only a
// verified share marks its signer as counted, so a signer padded with
// an invalid share ahead of its valid one still counts once, exactly
// as the certificate without the invalid share would; duplicates never
// double-count.
func TestCombineCertDuplicateBeforeValid(t *testing.T) {
	const n = 8
	pk, sks, err := threshsig.Deal(n, 5, [threshsig.Size]byte{7})
	if err != nil {
		t.Fatal(err)
	}
	m := LinearSigmaMessage(1)
	th := pk.Threshold()
	good := make([]threshsig.Share, 0, n)
	for _, sk := range sks {
		good = append(good, threshsig.SignShare(sk, m))
	}
	bad := good[0]
	bad.MAC[0] ^= 1

	t.Run("honest cert passes", func(t *testing.T) {
		if _, cert, err := combineCert(pk, m, good[:th]); err != nil || len(cert) != th {
			t.Fatalf("honest cert: %d shares kept, err %v", len(cert), err)
		}
	})
	t.Run("duplicate before valid counts the valid share", func(t *testing.T) {
		padded := append([]threshsig.Share{bad}, good[:th]...)
		sig, cert, err := combineCert(pk, m, padded)
		if err != nil {
			t.Fatalf("padded cert with threshold valid signers rejected: %v", err)
		}
		want, _, err := combineCert(pk, m, good[:th])
		if err != nil || sig != want {
			t.Fatal("padded cert combined to another signature than the cert without its bad share")
		}
		for _, s := range cert {
			if !threshsig.VerShare(pk, m, s) {
				t.Fatalf("trimmed cert keeps signer %d's invalid share", s.Signer)
			}
		}
	})
	t.Run("valid duplicates do not double count", func(t *testing.T) {
		shares := append([]threshsig.Share{}, good[:th-1]...)
		shares = append(shares, good[0], good[0])
		if _, _, err := combineCert(pk, m, shares); err == nil {
			t.Fatal("duplicated valid share double-counted")
		}
	})
	t.Run("out of range signers are ignored", func(t *testing.T) {
		shares := append([]threshsig.Share{{Signer: -1}, {Signer: 99}}, good[:th]...)
		if _, _, err := combineCert(pk, m, shares); err != nil {
			t.Fatalf("out-of-range shares poisoned a valid cert: %v", err)
		}
	})
}

// TestCombineCertLargeN: distinct-signer counting past a thousand
// signers, with a duplicated high signer.
func TestCombineCertLargeN(t *testing.T) {
	pk, sks, err := threshsig.Deal(1100, 3, [threshsig.Size]byte{42})
	if err != nil {
		t.Fatal(err)
	}
	m := LinearOmegaMessage(1)
	shares := []threshsig.Share{
		threshsig.SignShare(sks[0], m),
		threshsig.SignShare(sks[1070], m),
		threshsig.SignShare(sks[1070], m), // duplicate high signer
		threshsig.SignShare(sks[512], m),
	}
	if _, _, err := combineCert(pk, m, shares); err != nil {
		t.Fatalf("valid large-n cert rejected: %v", err)
	}
	if _, _, err := combineCert(pk, m, shares[:2]); err == nil {
		t.Fatal("two distinct signers passed threshold 3")
	}
	if _, _, err := combineCert(pk, m, shares[1:3]); err == nil {
		t.Fatal("duplicate signer double-counted")
	}
}
