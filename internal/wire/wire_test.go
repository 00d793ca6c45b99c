package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"proxcensus/internal/ba"
	"proxcensus/internal/coin"
	"proxcensus/internal/crypto/sig"
	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

func share(signer int, b byte) threshsig.Share {
	var mac [threshsig.Size]byte
	for i := range mac {
		mac[i] = b
	}
	return threshsig.Share{Signer: signer, MAC: mac}
}

func sig32(b byte) threshsig.Signature {
	var s threshsig.Signature
	for i := range s {
		s[i] = b
	}
	return s
}

func samplePayloads() []sim.Payload {
	var plainSig sig.Signature
	plainSig[5] = 9
	return []sim.Payload{
		proxcensus.EchoPayload{Z: 3, H: 7},
		proxcensus.EchoPayload{Z: -1, H: 0},
		proxcensus.LinearVote{V: 1, Share: share(4, 0xab)},
		proxcensus.LinearOmegaShare{V: 0, Share: share(2, 0xcd)},
		proxcensus.LinearSigma{V: 5, Sig: sig32(0x11)},
		proxcensus.LinearOmega{V: -9, Sig: sig32(0x22)},
		proxcensus.LinearSigmaCert{V: 2, Shares: []threshsig.Share{share(0, 1), share(1, 2)}},
		proxcensus.LinearOmegaCert{V: 2, Shares: nil},
		proxcensus.QuadVote{V: 1, Share: share(3, 0x44)},
		proxcensus.QuadOmegaShare{V: 0, J: 4, Share: share(6, 0x55)},
		proxcensus.QuadSig{V: 1, J: 2, Sig: sig32(0x66)},
		proxcensus.ProxcastSet{Pairs: []proxcensus.ProxcastPair{{Z: 0, Sig: plainSig}, {Z: 1, Sig: plainSig}}},
		proxcensus.ProxcastSet{},
		coin.SharePayload{K: 12, Share: share(1, 0x77)},
		ba.TCValue{V: 1 << 40},
		ba.TCEcho{V: 3, Valid: true},
		ba.TCEcho{V: 0, Valid: false},
		ba.TCCandidate{V: 8, Omega: sig32(0x99)},
		ba.TCPayload{Data: []byte("multivalued payload bytes")},
		ba.TCPayload{},
		ba.TCPayloadEcho{Data: bytes.Repeat([]byte{0x5a}, 1024), Valid: true},
		ba.TCPayloadEcho{Data: nil, Valid: false},
	}
}

// TestClassTable: one sample per payload class, in tag order. Each
// encodes under its class's tag, which EncodedClass reads back, decodes
// to itself, and prints as the class's name — the name equivocation
// evidence and the transport's logs carry. The row's class is the
// reference: the tag is checked against the payload's Go type here.
func TestClassTable(t *testing.T) {
	var plainSig sig.Signature
	plainSig[3] = 7
	rows := []struct {
		class Class
		name  string
		p     sim.Payload
	}{
		{ClassEcho, "echo", proxcensus.EchoPayload{Z: 3, H: 7}},
		{ClassLinearVote, "linear-vote", proxcensus.LinearVote{V: 1, Share: share(4, 0xab)}},
		{ClassLinearOmegaShare, "linear-omega-share", proxcensus.LinearOmegaShare{V: 0, Share: share(2, 0xcd)}},
		{ClassLinearSigma, "linear-sigma", proxcensus.LinearSigma{V: 5, Sig: sig32(0x11)}},
		{ClassLinearOmega, "linear-omega", proxcensus.LinearOmega{V: 1, Sig: sig32(0x22)}},
		{ClassLinearSigmaCert, "linear-sigma-cert", proxcensus.LinearSigmaCert{V: 2, Shares: []threshsig.Share{share(0, 1), share(1, 2)}}},
		{ClassLinearOmegaCert, "linear-omega-cert", proxcensus.LinearOmegaCert{V: 1, Shares: []threshsig.Share{share(3, 4)}}},
		{ClassQuadVote, "quad-vote", proxcensus.QuadVote{V: 1, Share: share(3, 0x44)}},
		{ClassQuadOmegaShare, "quad-omega-share", proxcensus.QuadOmegaShare{V: 0, J: 4, Share: share(6, 0x55)}},
		{ClassQuadSig, "quad-sig", proxcensus.QuadSig{V: 1, J: 2, Sig: sig32(0x66)}},
		{ClassProxcastSet, "proxcast-set", proxcensus.ProxcastSet{Pairs: []proxcensus.ProxcastPair{{Z: 2, Sig: plainSig}}}},
		{ClassCoinShare, "coin-share", coin.SharePayload{K: 12, Share: share(1, 0x77)}},
		{ClassTCValue, "tc-value", ba.TCValue{V: 9}},
		{ClassTCEcho, "tc-echo", ba.TCEcho{V: 3, Valid: true}},
		{ClassTCCandidate, "tc-candidate", ba.TCCandidate{V: 8, Omega: sig32(0x99)}},
		{ClassTCPayload, "tc-payload", ba.TCPayload{Data: []byte("multivalued")}},
		{ClassTCPayloadEcho, "tc-payload-echo", ba.TCPayloadEcho{Data: []byte{0x5a, 0x5b}, Valid: true}},
	}
	for i, row := range rows {
		if want := Class(i + 1); row.class != want {
			t.Fatalf("row %d is class %d, want %d: the table must list every class in tag order", i, row.class, want)
		}
		b, err := Encode(row.p)
		if err != nil {
			t.Fatalf("Encode(%T): %v", row.p, err)
		}
		if b[0] != byte(row.class) || EncodedClass(b) != row.class {
			t.Errorf("%T encodes with tag %d, EncodedClass %d, want class %d", row.p, b[0], EncodedClass(b), row.class)
		}
		got, err := Decode(b)
		if err != nil || !payloadEqual(row.p, got) {
			t.Errorf("%T round trip: got %+v, %v", row.p, got, err)
		}
		if row.class.String() != row.name {
			t.Errorf("class %d prints %q, want %q", row.class, row.class.String(), row.name)
		}
	}
	// Nothing past the table is a class.
	if next := Class(len(rows) + 1); next.registered() {
		t.Errorf("class %d is registered but has no row", next)
	}
	for _, b := range [][]byte{nil, {0}, {byte(len(rows) + 1)}, {0xff, 1}} {
		if c := EncodedClass(b); c != ClassUnknown {
			t.Errorf("EncodedClass(%x) = %v, want ClassUnknown", b, c)
		}
	}
	if got := Class(0xff).String(); got != "Class(255)" {
		t.Errorf("unregistered class prints %q", got)
	}
}

func TestRoundTripAllPayloads(t *testing.T) {
	for _, p := range samplePayloads() {
		b, err := Encode(p)
		if err != nil {
			t.Fatalf("Encode(%T): %v", p, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(%T): %v", p, err)
		}
		if !payloadEqual(p, got) {
			t.Errorf("round trip %T: got %+v, want %+v", p, got, p)
		}
	}
}

// payloadEqual compares payloads structurally (slices prevent ==).
func payloadEqual(a, b sim.Payload) bool {
	switch av := a.(type) {
	case proxcensus.LinearSigmaCert:
		bv, ok := b.(proxcensus.LinearSigmaCert)
		return ok && av.V == bv.V && sharesEqual(av.Shares, bv.Shares)
	case proxcensus.LinearOmegaCert:
		bv, ok := b.(proxcensus.LinearOmegaCert)
		return ok && av.V == bv.V && sharesEqual(av.Shares, bv.Shares)
	case proxcensus.ProxcastSet:
		bv, ok := b.(proxcensus.ProxcastSet)
		if !ok || len(av.Pairs) != len(bv.Pairs) {
			return false
		}
		for i := range av.Pairs {
			if av.Pairs[i] != bv.Pairs[i] {
				return false
			}
		}
		return true
	case ba.TCPayload:
		bv, ok := b.(ba.TCPayload)
		return ok && bytes.Equal(av.Data, bv.Data)
	case ba.TCPayloadEcho:
		bv, ok := b.(ba.TCPayloadEcho)
		return ok && av.Valid == bv.Valid && bytes.Equal(av.Data, bv.Data)
	default:
		return a == b
	}
}

func sharesEqual(a, b []threshsig.Share) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEncodeUnknownPayload(t *testing.T) {
	if _, err := Encode(nil); !errors.Is(err, ErrUnknownPayload) {
		t.Errorf("err = %v, want ErrUnknownPayload", err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"bad tag", []byte{0x00}},
		{"unknown tag", []byte{0xff, 1, 2}},
		{"truncated echo", []byte{0x01, 0, 0}},
		{"trailing bytes", append(mustEncode(proxcensus.EchoPayload{Z: 1, H: 1}), 0xee)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.b); err == nil {
				t.Error("malformed input decoded successfully")
			}
		})
	}
}

func mustEncode(p sim.Payload) []byte {
	b, err := Encode(p)
	if err != nil {
		panic(err)
	}
	return b
}

func TestDecodeHugeShareCount(t *testing.T) {
	// A certificate claiming 2^40 shares must be rejected, not
	// allocated.
	b := []byte{byte(ClassLinearSigmaCert)}
	b = append(b, make([]byte, 8)...)
	huge := make([]byte, 8)
	huge[2] = 0x01 // 2^40
	b = append(b, huge...)
	if _, err := Decode(b); err == nil {
		t.Error("absurd share count decoded")
	}
}

// payloadSink keeps decoded payloads live in TestReaderAllocations.
var payloadSink sim.Payload

// TestReaderAllocations pins the readers every Decode arm is built
// from — int64, byte, bytes32, share and the aliasing blob reader — at
// zero allocations, so a decode that misses the intern cache costs
// exactly the interface box of its payload. The copying blob and
// share-list readers allocate by contract (decoder.go).
func TestReaderAllocations(t *testing.T) {
	vote, err := Encode(proxcensus.LinearVote{V: 1, Share: threshsig.Share{Signer: 3, MAC: [32]byte{9}}})
	if err != nil {
		t.Fatal(err)
	}
	echo, err := Encode(ba.TCPayloadEcho{Data: bytes.Repeat([]byte{7}, 64), Valid: true})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r := reader{buf: vote[1:]}
		_, _ = r.int64(), r.share() // share reads an int64 and a bytes32
		e := reader{buf: echo[1:]}
		_, _ = e.blob(true), e.byte()
		if r.err != nil || len(r.buf) != 0 || e.err != nil || len(e.buf) != 0 {
			t.Fatalf("readers left %d/%d bytes, errs %v/%v", len(r.buf), len(e.buf), r.err, e.err)
		}
	}); allocs != 0 {
		t.Errorf("readers allocate %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { payloadSink, err = Decode(vote) }); allocs != 1 || err != nil {
		t.Errorf("Decode(vote) allocates %.1f objects (err %v), want 1: the interface box", allocs, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { payloadSink, err = decode(echo, true) }); allocs != 1 || err != nil {
		t.Errorf("decode(echo, true) allocates %.1f objects (err %v), want 1: the interface box", allocs, err)
	}
}

func TestQuickFuzzDecode(t *testing.T) {
	// Decode must never panic on arbitrary bytes.
	f := func(b []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("Decode panicked")
			}
		}()
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRoundTripEcho(t *testing.T) {
	f := func(z int32, h uint8) bool {
		p := proxcensus.EchoPayload{Z: int(z), H: int(h)}
		b, err := Encode(p)
		if err != nil {
			return false
		}
		got, err := Decode(b)
		return err == nil && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
