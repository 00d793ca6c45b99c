package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestHelloVersionRoundtrip: the hello on the wire is the v1 body
// (id, resume) plus one version byte, byte for byte, and a hand-built
// 16-byte v1 hello still decodes — as VersionLegacy, which the hub
// then refuses through CheckVersion.
func TestHelloVersionRoundtrip(t *testing.T) {
	want := []byte{0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 9, VersionMux}
	if got := EncodeHello(5, 9); !bytes.Equal(got, want) {
		t.Fatalf("hello %x, want %x", got, want)
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
	for _, want := range []string{"version mismatch", "v1", "v3"} {
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

// handEntry is one batch entry written exactly as given — address,
// length field, then payload bytes — so tests can build layouts the
// encoder never writes.
type handEntry struct {
	addr, length int
	payload      []byte
}

// lit is a literal entry and ref a back-reference to the previous
// literal.
func lit(addr int, p []byte) handEntry { return handEntry{addr, len(p), p} }
func ref(addr int) handEntry           { return handEntry{addr, backRef, nil} }

// handBatch builds an instance-5, round-2 batch frame body from entries.
func handBatch(entries ...handEntry) []byte {
	b := binary.BigEndian.AppendUint64(nil, 5)
	b = binary.BigEndian.AppendUint64(b, 2)
	b = binary.BigEndian.AppendUint64(b, uint64(len(entries)))
	for _, e := range entries {
		b = binary.BigEndian.AppendUint64(b, uint64(int64(e.addr)))
		b = binary.BigEndian.AppendUint64(b, uint64(int64(e.length)))
		b = append(b, e.payload...)
	}
	return b
}

// TestBatchBackReferenceLayout: the encoder writes a non-empty payload
// byte-equal to the frame's previous literal as a back-reference, and
// nothing else — not a payload of merely equal length, not one equal to
// an older literal, not an empty one — and both decoders resolve each
// reference to its literal: the aliasing core to the literal's very
// sub-slice of the frame, the copying wrapper to the literal's one copy.
func TestBatchBackReferenceLayout(t *testing.T) {
	a, b := []byte{1, 2}, []byte{1, 3}
	for _, tc := range []struct {
		name string
		msgs []BatchMsg
		want []handEntry
	}{
		{"distinct payloads of one length", []BatchMsg{{0, a}, {1, b}},
			[]handEntry{lit(0, a), lit(1, b)}},
		{"byte-equal copies from distinct senders", []BatchMsg{{0, a}, {1, []byte{1, 2}}, {2, []byte{1, 2}}},
			[]handEntry{lit(0, a), ref(1), ref(2)}},
		{"one slice broadcast", []BatchMsg{{0, a}, {1, a}},
			[]handEntry{lit(0, a), ref(1)}},
		{"only the previous literal is named", []BatchMsg{{0, a}, {1, b}, {2, a}},
			[]handEntry{lit(0, a), lit(1, b), lit(2, a)}},
		{"runs", []BatchMsg{{-1, a}, {0, a}, {3, b}, {3, b}},
			[]handEntry{lit(-1, a), ref(0), lit(3, b), ref(3)}},
		{"empty payloads stay literal", []BatchMsg{{0, nil}, {1, nil}, {2, []byte{}}},
			[]handEntry{lit(0, nil), lit(1, nil), lit(2, nil)}},
		{"an empty literal ends a run", []BatchMsg{{0, a}, {1, nil}, {2, a}},
			[]handEntry{lit(0, a), lit(1, nil), lit(2, a)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := AppendEncodeTaggedBatch(nil, 5, 2, tc.msgs)
			if err != nil {
				t.Fatal(err)
			}
			if want := handBatch(tc.want...); !bytes.Equal(frame, want) {
				t.Fatalf("encoded %x, want %x", frame, want)
			}
			_, _, aliased, _, err := DecodeTaggedBatchAliasCapped(frame, -1, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, _, copied, err := DecodeTaggedBatch(frame)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range tc.msgs {
				for _, got := range []BatchMsg{aliased[i], copied[i]} {
					if got.Addr != m.Addr || !bytes.Equal(got.Payload, m.Payload) {
						t.Fatalf("entry %d decoded to %+v, want %+v", i, got, m)
					}
				}
				if tc.want[i].length != backRef {
					continue
				}
				if &aliased[i].Payload[0] != &aliased[i-1].Payload[0] {
					t.Errorf("entry %d: aliased reference is not its literal's sub-slice", i)
				}
				if &copied[i].Payload[0] != &copied[i-1].Payload[0] {
					t.Errorf("entry %d: copied reference does not share its literal's copy", i)
				}
			}
		})
	}
}

// TestDecodeDoesNotAmplify: a frame of one 1 MiB literal and 255
// back-references to it costs the copying decoder one copy of the
// literal plus the entry list, not 256 copies, and the aliasing core the
// entry list alone. The references are entries like any other: a cap of
// 16 keeps 16 and drops 240.
func TestDecodeDoesNotAmplify(t *testing.T) {
	const entries, size = 256, 1 << 20
	blob := bytes.Repeat([]byte{0x6b}, size)
	msgs := make([]BatchMsg, entries)
	for i := range msgs {
		msgs[i] = BatchMsg{Addr: i, Payload: blob}
	}
	frame, err := AppendEncodeTaggedBatch(nil, 1, 2, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if want := batchHeader + 16*entries + size; len(frame) != want {
		t.Fatalf("frame is %d bytes, want %d", len(frame), want)
	}
	const entryBudget = 64 << 10 // the entry list, with room to spare
	for _, tc := range []struct {
		name   string
		budget uint64
		decode func() ([]BatchMsg, error)
	}{
		{"DecodeTaggedBatchCapped", size + entryBudget, func() ([]BatchMsg, error) {
			_, _, got, _, err := DecodeTaggedBatchCapped(frame, -1)
			return got, err
		}},
		{"DecodeTaggedBatch", size + entryBudget, func() ([]BatchMsg, error) {
			_, _, got, err := DecodeTaggedBatch(frame)
			return got, err
		}},
		{"DecodeTaggedBatchAliasCapped", entryBudget, func() ([]BatchMsg, error) {
			_, _, got, _, err := DecodeTaggedBatchAliasCapped(frame, -1, nil)
			return got, err
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := tc.decode()
		runtime.ReadMemStats(&after)
		if err != nil || len(got) != entries {
			t.Fatalf("%s: %d entries, err %v", tc.name, len(got), err)
		}
		if allocated := after.TotalAlloc - before.TotalAlloc; allocated > tc.budget {
			t.Errorf("%s allocated %d B for a %d B literal and %d entries; want at most %d",
				tc.name, allocated, size, entries, tc.budget)
		}
		for i := range got {
			if got[i].Addr != i || !bytes.Equal(got[i].Payload, blob) {
				t.Fatalf("%s: entry %d differs", tc.name, i)
			}
		}
	}
	_, _, kept, dropped, err := DecodeTaggedBatchCapped(frame, 16)
	if err != nil || len(kept) != 16 || dropped != entries-16 {
		t.Fatalf("cap 16: kept %d, dropped %d, err %v", len(kept), dropped, err)
	}
}

// TestBatchCodecWorkIsLinear: the encoder compares each payload with
// one earlier payload and the decoder each literal with one earlier
// literal, so a frame's cost follows its bytes, not its entry count
// squared. A megabyte cut into 256 distinct blobs of one length — each
// differing from the last only in its final byte, so every comparison
// runs to the end — must encode and decode about as fast as the same
// megabyte cut into 4 blobs; comparing each blob with every earlier one
// would make it some 60 times slower.
func TestBatchCodecWorkIsLinear(t *testing.T) {
	const total = 1 << 20
	blobs := func(count int) []BatchMsg {
		msgs := make([]BatchMsg, count)
		for i := range msgs {
			p := bytes.Repeat([]byte{0x2e}, total/count)
			p[len(p)-1] = byte(i)
			msgs[i] = BatchMsg{Addr: i, Payload: p}
		}
		return msgs
	}
	// fastest is the best of several encode-and-decode passes, which
	// screens out scheduling noise.
	fastest := func(msgs []BatchMsg) time.Duration {
		var buf []byte
		var scratch []BatchMsg
		best := time.Duration(1<<63 - 1)
		for run := 0; run < 20; run++ {
			start := time.Now()
			frame, err := AppendEncodeTaggedBatch(buf[:0], 0, 1, msgs)
			if err != nil {
				t.Fatal(err)
			}
			_, _, got, _, err := DecodeTaggedBatchAliasCapped(frame, -1, scratch[:0])
			if err != nil || len(got) != len(msgs) {
				t.Fatalf("%d entries decoded, err %v", len(got), err)
			}
			best = min(best, time.Since(start))
			buf, scratch = frame, got
		}
		return best
	}
	few, many := fastest(blobs(4)), fastest(blobs(256))
	if many > 8*few {
		t.Errorf("256 blobs take %v, 4 blobs of the same bytes %v: more than 8 times as long", many, few)
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
// — a tagged body without its leading instance tag) handed to the decoder
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
	// Runs of back-references, and a reference to a literal two back.
	runs, err := AppendEncodeTaggedBatch(nil, 12, 4, []BatchMsg{
		{Addr: 0, Payload: []byte{0xde, 0xad}},
		{Addr: 1, Payload: []byte{0xde, 0xad}},
		{Addr: 2, Payload: []byte{0xbe, 0xef}},
		{Addr: 3, Payload: []byte{0xbe, 0xef}},
		{Addr: 3, Payload: []byte{0xbe, 0xef}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(runs)
	f.Add(handBatch(lit(0, []byte{1}), lit(1, []byte{2}), handEntry{2, -2, nil}))

	f.Fuzz(checkBatchCanonical)
}

// checkBatchCanonical is the batch codec's fuzz property, shared by
// FuzzDecodeTagged and FuzzDecodeBatch (two seed corpora, one codec):
// whatever decodes re-encodes byte-identically, and the copying and
// aliasing decoders agree on it entry for entry.
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
	for i := range msgs {
		if aliased[i].Addr != msgs[i].Addr || !bytes.Equal(aliased[i].Payload, msgs[i].Payload) {
			t.Fatalf("entry %d: alias decode %+v, copy decode %+v", i, aliased[i], msgs[i])
		}
	}
}
