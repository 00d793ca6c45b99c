package transport

import (
	"testing"

	"proxcensus/internal/ba"
	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/validate"
	"proxcensus/internal/wire"
)

// ingressFixture builds one instance's receive state with a live
// ForHalf validator plus one round batch of n signed votes in wire
// form, the traffic shape a steady-state ingress round decodes and
// screens.
func ingressFixture(t testing.TB, n int) (*instanceRun, []wire.BatchMsg) {
	t.Helper()
	setup, err := ba.NewSetup(n, (n-1)/2, ba.CoinThreshold, 7)
	if err != nil {
		t.Fatal(err)
	}
	nd := &instanceRun{
		node:    &MuxNode{},
		dec:     wire.NewDecoder(),
		ingress: validate.New(validate.ForHalf(n, setup.CoinPK, setup.ProxPK)),
	}
	msgs := make([]wire.BatchMsg, 0, n)
	for i := 0; i < n; i++ {
		v := i % 2
		raw, err := wire.Encode(proxcensus.LinearVote{
			V:     v,
			Share: threshsig.SignShare(setup.ProxSKs[i], proxcensus.LinearSigmaMessage(v)),
		})
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, wire.BatchMsg{Addr: i, Payload: raw})
	}
	return nd, msgs
}

// TestIngressSteadyStateAllocations locks in the pooled receive path:
// once the node's scratch and the validator's caches are warm (the
// first rounds grow them), decoding and screening a full round batch —
// interning decode, batched signature verification, inbox routing —
// must allocate nothing. Style follows sim's
// TestRunSteadyStateAllocations.
func TestIngressSteadyStateAllocations(t *testing.T) {
	nd, msgs := ingressFixture(t, 16)
	round := 1
	for w := 0; w < 3; w++ { // warm scratch, intern cache, message cache
		if got := len(nd.decodeRound(round, msgs)); got != len(msgs) {
			t.Fatalf("warm round admitted %d of %d", got, len(msgs))
		}
		round += 3 // every batch lands in a fresh vote round (round%3 == 1)
	}
	allocs := testing.AllocsPerRun(50, func() {
		inbox := nd.decodeRound(round, msgs)
		if len(inbox) != len(msgs) {
			t.Fatalf("steady round admitted %d of %d", len(inbox), len(msgs))
		}
		round += 3
	})
	if allocs != 0 {
		t.Errorf("steady-state ingress round allocates %.1f objects; want 0", allocs)
	}
}

// TestSendSteadyStateAllocations is the egress twin: encoding a round
// of sends into the pooled arena and framing them must allocate
// nothing once the buffers are warm.
func TestSendSteadyStateAllocations(t *testing.T) {
	nd, msgs := ingressFixture(t, 16)
	sends := make([]sim.Send, 0, len(msgs))
	for i := range msgs {
		p, err := wire.Decode(msgs[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		sends = append(sends, sim.Send{To: sim.Broadcast, Payload: p})
	}
	want, err := nd.encodeSends(5, sends) // warm arena, batch, frame
	if err != nil {
		t.Fatal(err)
	}
	wantLen := len(want)
	allocs := testing.AllocsPerRun(50, func() {
		frame, err := nd.encodeSends(5, sends)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != wantLen {
			t.Fatalf("frame size changed: %d != %d", len(frame), wantLen)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state send encode allocates %.1f objects; want 0", allocs)
	}
}

// TestReceivePathMatchesLegacyDecode cross-checks the pooled ingress
// path against a from-scratch copying decode of the same frame: same admitted
// senders, same payload values, regardless of scratch reuse across
// differing batches.
func TestReceivePathMatchesLegacyDecode(t *testing.T) {
	nd, msgs := ingressFixture(t, 16)
	frame, err := wire.EncodeTaggedBatch(LocalInstance, 1, msgs)
	if err != nil {
		t.Fatal(err)
	}
	_, round, fresh, err := wire.DecodeTaggedBatch(frame)
	if err != nil || round != 1 {
		t.Fatalf("round %d err %v", round, err)
	}
	inbox := nd.decodeRound(1, fresh)
	if len(inbox) != len(msgs) {
		t.Fatalf("admitted %d of %d", len(inbox), len(msgs))
	}
	for i, m := range inbox {
		if m.From != msgs[i].Addr || m.Round != 1 || m.To != 0 {
			t.Fatalf("message %d misrouted: %+v", i, m)
		}
		p, err := wire.Decode(msgs[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if m.Payload != p {
			t.Fatalf("message %d payload diverges: %v != %v", i, m.Payload, p)
		}
	}
}
