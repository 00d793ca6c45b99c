// Payload ingress tests: the size cap (service ceiling and hard wire
// cap), content-hash duplicate suppression and payload-equivocation
// evidence at kilobyte sizes, batch-splitting invariance for the
// unsigned payload classes, and the steady-state and cold-instance
// allocation pins.

package validate

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"proxcensus/internal/ba"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/wire"
)

// taggedRaw stands in for a payload's encoding: the class's tag byte,
// which the screen reads the class from, then filler that keeps
// distinct messages' digests distinct. A payload over
// ba.MaxPayloadBytes has no encoding, so the hard-cap test needs one.
func taggedRaw(c wire.Class, filler string) []byte {
	return append([]byte{byte(c)}, filler...)
}

func payloadOf(t testing.TB, from int, data []byte) Inbound {
	t.Helper()
	return inboundOf(t, from, ba.TCPayload{Data: data})
}

func TestPayloadSizeCap(t *testing.T) {
	v := New(ForPayloadService(4, 100))
	if !admitOne(v, 1, Inbound{From: 0, Raw: taggedRaw(wire.ClassTCPayload, "raw-a"), Payload: ba.TCPayload{Data: bytes.Repeat([]byte{1}, 100)}}) {
		t.Error("payload at the service cap rejected")
	}
	if admitOne(v, 1, Inbound{From: 1, Raw: taggedRaw(wire.ClassTCPayload, "raw-b"), Payload: ba.TCPayload{Data: bytes.Repeat([]byte{1}, 101)}}) {
		t.Error("payload over the service cap admitted")
	}
	if admitOne(v, 1, Inbound{From: 2, Raw: taggedRaw(wire.ClassTCPayloadEcho, "raw-c"), Payload: ba.TCPayloadEcho{Data: bytes.Repeat([]byte{1}, 101), Valid: true}}) {
		t.Error("payload echo over the service cap admitted")
	}
	if got := v.Report().Rejections(RejectDomain); got != 2 {
		t.Errorf("domain rejections = %d, want 2", got)
	}
}

func TestPayloadHardCap(t *testing.T) {
	// Even permissive General rules enforce the wire-level ceiling: a
	// decoded payload above ba.MaxPayloadBytes (possible only if a
	// decoder bug let it through) is still a domain violation.
	v := New(General(4))
	over := ba.TCPayload{Data: make([]byte, ba.MaxPayloadBytes+1)}
	if admitOne(v, 1, Inbound{From: 0, Raw: taggedRaw(wire.ClassTCPayload, "raw"), Payload: over}) {
		t.Error("payload over the hard wire cap admitted under General rules")
	}
	at := ba.TCPayload{Data: make([]byte, ba.MaxPayloadBytes)}
	if !admitOne(v, 1, Inbound{From: 1, Raw: taggedRaw(wire.ClassTCPayload, "raw2"), Payload: at}) {
		t.Error("payload at the hard wire cap rejected under General rules")
	}
}

func TestPayloadDuplicateAndEquivocation(t *testing.T) {
	v := New(ForPayloadService(4, 1<<20))
	a := bytes.Repeat([]byte{0xaa}, 2048)
	b := bytes.Repeat([]byte{0xbb}, 2048)

	if !admitOne(v, 1, Inbound{From: 0, Raw: taggedRaw(wire.ClassTCPayload, "raw-a"), Payload: ba.TCPayload{Data: a}}) {
		t.Fatal("first payload rejected")
	}
	// Byte-identical resend: duplicate, not equivocation.
	if admitOne(v, 1, Inbound{From: 0, Raw: taggedRaw(wire.ClassTCPayload, "raw-a"), Payload: ba.TCPayload{Data: a}}) {
		t.Error("duplicate payload admitted")
	}
	// Different content, same sender, same round: payload equivocation,
	// with evidence keyed on the content hash, not the content.
	if admitOne(v, 1, Inbound{From: 0, Raw: taggedRaw(wire.ClassTCPayload, "raw-b"), Payload: ba.TCPayload{Data: b}}) {
		t.Error("equivocating payload admitted")
	}
	rep := v.Report()
	if rep.Rejections(RejectDuplicate) != 1 || rep.Rejections(RejectEquivocation) != 1 {
		t.Fatalf("rejections = dup:%d equiv:%d, want 1 and 1",
			rep.Rejections(RejectDuplicate), rep.Rejections(RejectEquivocation))
	}
	if len(rep.Evidence) != 1 {
		t.Fatalf("evidence entries = %d, want 1", len(rep.Evidence))
	}
	ev := rep.Evidence[0]
	if ev.Class != wire.ClassTCPayload || ev.From != 0 {
		t.Errorf("evidence = %+v, want class tc-payload from 0", ev)
	}
	if !strings.Contains(ev.First, "len=2048") || !strings.Contains(ev.First, "sha=") {
		t.Errorf("evidence rendering %q lacks len/sha digest form", ev.First)
	}
	if strings.Contains(ev.First, fmt.Sprintf("%x", a[:8])) {
		t.Errorf("evidence rendering %q embeds payload content", ev.First)
	}
}

// TestPayloadBatchEquivalence: one AdmitBatch call over the round must
// match one call per message verdict-for-verdict on payload traffic —
// including duplicates, equivocators and oversize floods, which
// carry no signatures.
func TestPayloadBatchEquivalence(t *testing.T) {
	big := bytes.Repeat([]byte{7}, 4096)
	in := []Inbound{
		payloadOf(t, 0, bytes.Repeat([]byte{1}, 1024)),
		payloadOf(t, 1, bytes.Repeat([]byte{2}, 1024)),
		payloadOf(t, 1, bytes.Repeat([]byte{3}, 1024)), // equivocator
		payloadOf(t, 0, bytes.Repeat([]byte{1}, 1024)), // duplicate
		payloadOf(t, 2, big),                           // over the cap below
		inboundOf(t, 3, ba.TCPayloadEcho{Data: bytes.Repeat([]byte{4}, 512), Valid: true}),
		{From: 9, Raw: []byte("bad"), Payload: nil, Err: fmt.Errorf("decode failed")},
	}
	rules := ForPayloadService(4, 2048)
	splitV, wholeV := New(rules), New(rules)
	want := admitSplit(splitV, 1, in)
	got := wholeV.AdmitBatch(1, in, nil)
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("message %d: split=%t whole=%t", i, want[i], got[i])
		}
	}
	if !reportsEqual(splitV.Report(), wholeV.Report()) {
		t.Errorf("report mismatch:\nsplit: %s\nwhole: %s",
			splitV.Report().Summary(), wholeV.Report().Summary())
	}
}

// TestPayloadSteadyStateAllocations: after warm-up, screening a full
// round of kilobyte payload echoes through AdmitBatch must not
// allocate — the payload twin of TestBatchSteadyStateAllocations, and
// the pin that keeps content hashing from turning into content
// copying.
func TestPayloadSteadyStateAllocations(t *testing.T) {
	const n = 16
	v := New(ForPayloadService(n, 1<<20))
	in := make([]Inbound, 0, n)
	candidate := bytes.Repeat([]byte{0x42}, 1024)
	for i := 0; i < n; i++ {
		in = append(in, inboundOf(t, i, ba.TCPayloadEcho{Data: candidate, Valid: true}))
	}
	verdicts := make([]bool, 0, n)
	round := 0
	run := func() {
		round++
		verdicts = v.AdmitBatch(round, in, verdicts[:0])
		for _, ok := range verdicts {
			if !ok {
				t.Fatal("honest payload echo rejected")
			}
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("AdmitBatch allocated %.1f objects per steady-state payload round, want 0", allocs)
	}
}

// TestColdInstanceAllocations: a node builds a validator for each
// instance slot it opens, so a fresh one must be cheap too — New sizes everything
// honest traffic needs, and screening an instance's five honest rounds
// (payloads, payload echoes, three echo rounds) allocates nothing after
// it.
func TestColdInstanceAllocations(t *testing.T) {
	const n = 16
	candidate := bytes.Repeat([]byte{0x42}, 1024)
	rounds := make([][]Inbound, 5)
	for i := 0; i < n; i++ {
		rounds[0] = append(rounds[0], inboundOf(t, i, ba.TCPayload{Data: candidate}))
		rounds[1] = append(rounds[1], inboundOf(t, i, ba.TCPayloadEcho{Data: candidate, Valid: true}))
		for r := 2; r < 5; r++ {
			rounds[r] = append(rounds[r], inboundOf(t, i, proxcensus.EchoPayload{Z: 1, H: r - 2}))
		}
	}
	rules := ForPayloadService(n, 1<<20)
	const runs = 20
	fresh := make([]*Validator, runs+1) // AllocsPerRun warms up with one extra call
	for i := range fresh {
		fresh[i] = New(rules)
	}
	verdicts := make([]bool, 0, n)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		v := fresh[next]
		next++
		for r, in := range rounds {
			verdicts = v.AdmitBatch(r+1, in, verdicts[:0])
			for _, ok := range verdicts {
				if !ok {
					t.Fatalf("round %d: honest message rejected", r+1)
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a fresh validator allocated %.1f objects screening five honest rounds, want 0", allocs)
	}
}

// TestWarmInstanceAllocations is TestColdInstanceAllocations for a
// validator the transport keeps across instances: Reset, then the same
// instance's five honest rounds, allocates nothing either.
func TestWarmInstanceAllocations(t *testing.T) {
	const n = 16
	candidate := bytes.Repeat([]byte{0x42}, 1024)
	rounds := make([][]Inbound, 5)
	for i := 0; i < n; i++ {
		rounds[0] = append(rounds[0], inboundOf(t, i, ba.TCPayload{Data: candidate}))
		rounds[1] = append(rounds[1], inboundOf(t, i, ba.TCPayloadEcho{Data: candidate, Valid: true}))
		for r := 2; r < 5; r++ {
			rounds[r] = append(rounds[r], inboundOf(t, i, proxcensus.EchoPayload{Z: 1, H: r - 2}))
		}
	}
	v := New(ForPayloadService(n, 1<<20))
	verdicts := make([]bool, 0, n)
	instance := func() {
		v.Reset()
		for r, in := range rounds {
			verdicts = v.AdmitBatch(r+1, in, verdicts[:0])
			for _, ok := range verdicts {
				if !ok {
					t.Fatalf("round %d: honest message rejected", r+1)
				}
			}
		}
	}
	instance() // the first instance grows what the next ones reuse
	if allocs := testing.AllocsPerRun(20, instance); allocs != 0 {
		t.Fatalf("a reset validator allocated %.1f objects screening five honest rounds, want 0", allocs)
	}
	if got := v.Report().Admitted; got != 5*n {
		t.Fatalf("report after one instance admits %d, want %d: Reset must zero the counters", got, 5*n)
	}
}
