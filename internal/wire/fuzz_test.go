package wire

import (
	"bytes"
	"testing"

	"proxcensus/internal/ba"
)

// FuzzDecode drives the codec with arbitrary bytes: it must never
// panic, and everything it accepts must re-encode to a canonical form
// that decodes to the same payload (decode-encode-decode fixpoint).
func FuzzDecode(f *testing.F) {
	for _, p := range samplePayloads() {
		b, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
	f.Add([]byte{byte(ClassLinearSigmaCert), 0, 0, 0, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		re, err := Encode(p)
		if err != nil {
			t.Fatalf("decoded %T but cannot re-encode: %v", p, err)
		}
		p2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded form of %T does not decode: %v", p, err)
		}
		re2, err := Encode(p2)
		if err != nil {
			t.Fatalf("second re-encode of %T failed: %v", p2, err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encode not canonical for %T: %x vs %x", p, re, re2)
		}
	})
}

// FuzzDecodeBatch drives the transport frame codec with arbitrary
// bytes from a corpus of whole, truncated and blob-carrying frames: it
// must never panic, and every batch it accepts must re-encode
// byte-identically (checkBatchCanonical).
func FuzzDecodeBatch(f *testing.F) {
	seed, err := AppendEncodeTaggedBatch(nil, 0, 3, []BatchMsg{
		{Addr: -1, Payload: []byte{0xde, 0xad}},
		{Addr: 2, Payload: nil},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	empty, err := AppendEncodeTaggedBatch(nil, 0, 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 7}) // a v1 hello: id 4, resume 7
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	// A frame of a later instance, whole and truncated mid-tag.
	tagged, err := AppendEncodeTaggedBatch(nil, 9, 3, []BatchMsg{{Addr: 1, Payload: []byte{0x42}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tagged)
	f.Add(tagged[:5])
	// Payload-carrying seeds: a kilobyte blob inside a batch frame, and
	// a truncation that cuts the blob's length prefix in half.
	blob, err := Encode(ba.TCPayload{Data: bytes.Repeat([]byte{0x3c}, 1024)})
	if err != nil {
		f.Fatal(err)
	}
	withBlob, err := AppendEncodeTaggedBatch(nil, 0, 6, []BatchMsg{{Addr: 0, Payload: blob}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withBlob)
	f.Add(withBlob[:len(withBlob)-512])
	// Back-reference seeds: one blob broadcast by three senders (a
	// literal, then two references), the same frame cut inside its last
	// reference, and layouts the encoder never writes — a reference
	// first, a reference after an empty literal, a length below -1 and a
	// literal repeating the previous one.
	relayed, err := AppendEncodeTaggedBatch(nil, 4, 6, []BatchMsg{
		{Addr: 0, Payload: blob},
		{Addr: 1, Payload: bytes.Clone(blob)},
		{Addr: 2, Payload: bytes.Clone(blob)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(relayed)
	f.Add(relayed[:len(relayed)-4])
	f.Add(handBatch(ref(0)))
	f.Add(handBatch(lit(0, nil), ref(1)))
	f.Add(handBatch(lit(0, []byte{7}), handEntry{1, -2, nil}))
	f.Add(handBatch(lit(0, []byte{7}), lit(1, []byte{7})))

	f.Fuzz(checkBatchCanonical)
}
