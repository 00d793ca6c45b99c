package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// TestHelloVersionRoundtrip: the hello on the wire is the v1 body
// (id, resume) plus one version byte, byte for byte, and a hand-built
// 16-byte v1 hello still decodes — as VersionLegacy, which the hub
// then refuses through CheckVersion.
func TestHelloVersionRoundtrip(t *testing.T) {
	want := []byte{0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 9, VersionMux}
	if got := EncodeHello(5, 9); !bytes.Equal(got, want) {
		t.Fatalf("v2 hello %x, want %x", got, want)
	}
	legacy := []byte{0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 7}
	id, resume, version, err := DecodeHello(legacy)
	if err != nil || id != 3 || resume != 7 || version != VersionLegacy {
		t.Fatalf("v1 decode: id=%d resume=%d version=%d err=%v", id, resume, version, err)
	}
}

// TestHelloVersionMalformed: wrong lengths and a zero version byte are
// rejected with ErrBadFrame.
func TestHelloVersionMalformed(t *testing.T) {
	zeroVersion := EncodeHello(1, 0)
	zeroVersion[legacyHelloSize] = 0
	for _, body := range [][]byte{
		nil,
		make([]byte, legacyHelloSize-1),
		make([]byte, helloSize+1),
		zeroVersion,
	} {
		if _, _, _, err := DecodeHello(body); !errors.Is(err, ErrBadFrame) {
			t.Errorf("DecodeHello(%d bytes) err = %v, want ErrBadFrame", len(body), err)
		}
	}
}

// TestCheckVersion: negotiation accepts only an exact match and names
// both versions in the mismatch error.
func TestCheckVersion(t *testing.T) {
	if err := CheckVersion(VersionMux, VersionMux); err != nil {
		t.Fatalf("matching versions rejected: %v", err)
	}
	err := CheckVersion(VersionLegacy, VersionMux)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("mismatch err = %v, want ErrBadFrame", err)
	}
	for _, want := range []string{"version mismatch", "v1", "v2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mismatch error %q does not mention %q", err, want)
		}
	}
}

// TestTaggedBatchRoundtrip: the tagged encode/decode paths roundtrip,
// the copying and aliasing decoders agree, and the instance tag is the
// frame's first eight bytes — what a mux reader demultiplexes on.
func TestTaggedBatchRoundtrip(t *testing.T) {
	msgs := []BatchMsg{
		{Addr: -1, Payload: []byte{0xde, 0xad}},
		{Addr: 2, Payload: nil},
		{Addr: 0, Payload: bytes.Repeat([]byte{0x3c}, 40)},
	}
	frame, err := AppendEncodeTaggedBatch(nil, 71, 4, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if tag := binary.BigEndian.Uint64(frame[:taggedHeader]); tag != 71 {
		t.Fatalf("frame starts with tag %d, want 71", tag)
	}

	inst, round, got, err := DecodeTaggedBatch(frame)
	if err != nil || inst != 71 || round != 4 {
		t.Fatalf("DecodeTaggedBatch: inst=%d round=%d err=%v", inst, round, err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if got[i].Addr != msgs[i].Addr || !bytes.Equal(got[i].Payload, msgs[i].Payload) {
			t.Fatalf("msg %d: got %+v want %+v", i, got[i], msgs[i])
		}
	}

	var scratch [8]BatchMsg
	_, _, aliased, _, err := DecodeTaggedBatchAliasCapped(frame, -1, scratch[:0])
	if err != nil || len(aliased) != len(msgs) {
		t.Fatalf("alias decode: n=%d err=%v", len(aliased), err)
	}
	for i := range got {
		if !bytes.Equal(aliased[i].Payload, got[i].Payload) {
			t.Fatalf("alias msg %d differs from copy decode", i)
		}
	}

	// Append variant matches and preserves its prefix.
	appended, err := AppendEncodeTaggedBatch([]byte{0x55}, 71, 4, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if appended[0] != 0x55 || !bytes.Equal(appended[1:], frame) {
		t.Fatal("AppendEncodeTaggedBatch mishandled its prefix")
	}
}

// TestDecodeAliasWarmAllocations: the mux readers parse every round
// frame through DecodeTaggedBatchAliasCapped into their frame's pooled
// scratch; once that scratch has grown, a parse allocates nothing,
// flood-capped or not.
func TestDecodeAliasWarmAllocations(t *testing.T) {
	msgs := make([]BatchMsg, 16)
	for i := range msgs {
		msgs[i] = BatchMsg{Addr: i, Payload: bytes.Repeat([]byte{byte(i)}, 64)}
	}
	frame, err := AppendEncodeTaggedBatch(nil, 3, 5, msgs)
	if err != nil {
		t.Fatal(err)
	}
	var scratch []BatchMsg
	for _, tc := range []struct{ maxMsgs, kept int }{{-1, 16}, {8, 8}} {
		allocs := testing.AllocsPerRun(50, func() { // the warm-up run grows scratch
			_, round, got, _, err := DecodeTaggedBatchAliasCapped(frame, tc.maxMsgs, scratch[:0])
			if err != nil || round != 5 || len(got) != tc.kept {
				t.Fatalf("cap %d: round %d, %d msgs, err %v", tc.maxMsgs, round, len(got), err)
			}
			scratch = got
		})
		if allocs != 0 {
			t.Errorf("cap %d: warm alias parse allocates %.1f objects, want 0", tc.maxMsgs, allocs)
		}
	}
}

// TestTaggedBatchBounds: out-of-range instance tags are rejected on
// both the encode and decode sides.
func TestTaggedBatchBounds(t *testing.T) {
	if _, err := AppendEncodeTaggedBatch(nil, -1, 1, nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("negative instance encoded: %v", err)
	}
	frame, err := AppendEncodeTaggedBatch(nil, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sign bit set in the tag: decodes to a negative instance.
	bad := append([]byte(nil), frame...)
	binary.BigEndian.PutUint64(bad[:8], 1<<63)
	if _, _, _, _, err := DecodeTaggedBatchCapped(bad, -1); !errors.Is(err, ErrBadFrame) {
		t.Errorf("negative instance tag decoded: %v", err)
	}
}

// TestTaggedBatchTruncation: truncation anywhere inside the tag (or an
// empty body) is a clean ErrBadFrame, never a panic or a misparse.
func TestTaggedBatchTruncation(t *testing.T) {
	frame, err := AppendEncodeTaggedBatch(nil, 9, 2, []BatchMsg{{Addr: 1, Payload: []byte{7}}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < taggedHeader; cut++ {
		if _, _, _, err := DecodeTaggedBatch(frame[:cut]); !errors.Is(err, ErrBadFrame) {
			t.Errorf("truncated mid-tag at %d bytes: err = %v, want ErrBadFrame", cut, err)
		}
	}
}

// TestTaggedLegacyCrossDecode: a v1 batch body (round, count, entries
// — a v2 body without its leading instance tag) handed to the decoder
// parses its round as the instance tag and then misaligns — the
// version-negotiated hello, not luck, is what keeps a retired peer's
// frames out. The specific frame here (round 3, two messages) must
// fail cleanly rather than silently decode to a wrong batch.
func TestTaggedLegacyCrossDecode(t *testing.T) {
	tagged, err := AppendEncodeTaggedBatch(nil, 0, 3, []BatchMsg{
		{Addr: -1, Payload: []byte{0xde, 0xad}},
		{Addr: 2, Payload: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeTaggedBatch(tagged[taggedHeader:]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("tagged decode of legacy frame: err = %v, want ErrBadFrame", err)
	}
}

// FuzzDecodeTagged drives the instance-tagged frame codec with
// arbitrary bytes: it must never panic, and every tagged batch it
// accepts must re-encode byte-identically (the tagged encoding is
// canonical), with copy and alias decode paths agreeing.
func FuzzDecodeTagged(f *testing.F) {
	seed, err := AppendEncodeTaggedBatch(nil, 12, 3, []BatchMsg{
		{Addr: -1, Payload: []byte{0xde, 0xad}},
		{Addr: 2, Payload: nil},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:4])            // truncated mid-tag
	f.Add(seed[taggedHeader:]) // cross-decode: a v1 body, which has no tag
	f.Add([]byte{})
	f.Add(EncodeHello(4, 7))

	f.Fuzz(checkBatchCanonical)
}

// checkBatchCanonical is the batch codec's fuzz property, shared by
// FuzzDecodeTagged and FuzzDecodeBatch (two seed corpora, one codec):
// whatever decodes re-encodes byte-identically, and the copying and
// aliasing decoders agree on it.
func checkBatchCanonical(t *testing.T, data []byte) {
	inst, round, msgs, err := DecodeTaggedBatch(data)
	if err != nil {
		return // rejected input is fine; panics are not
	}
	re, rerr := AppendEncodeTaggedBatch(nil, inst, round, msgs)
	if rerr != nil {
		t.Fatalf("decoded tagged batch but cannot re-encode: %v", rerr)
	}
	if !bytes.Equal(re, data) {
		t.Fatalf("tagged encoding not canonical: %x vs %x", re, data)
	}
	instA, roundA, aliased, _, aerr := DecodeTaggedBatchAliasCapped(append([]byte(nil), data...), -1, nil)
	if aerr != nil || instA != inst || roundA != round || len(aliased) != len(msgs) {
		t.Fatalf("alias decode disagrees with copy decode: inst=%d/%d round=%d/%d n=%d/%d err=%v",
			instA, inst, roundA, round, len(aliased), len(msgs), aerr)
	}
}
