// Payload codec tests: round trips across sizes, the oversize cap on
// both encode and decode, truncation and trailing-byte rejection, the
// copy-vs-alias decode contract, and a dedicated fuzz target — the
// blob mirror of the tagged-frame suite.

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"proxcensus/internal/ba"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

func TestPayloadRoundTripSizes(t *testing.T) {
	for _, size := range []int{0, 1, 7, 64, 1024, 16 << 10, 1 << 18} {
		data := bytes.Repeat([]byte{byte(size)}, size)
		for _, p := range []struct {
			name    string
			payload interface {
				SigCount() int
				ByteSize() int
			}
		}{
			{"tc-payload", ba.TCPayload{Data: data}},
			{"tc-payload-echo", ba.TCPayloadEcho{Data: data, Valid: size%2 == 0}},
		} {
			b, err := Encode(p.payload)
			if err != nil {
				t.Fatalf("%s size=%d: Encode: %v", p.name, size, err)
			}
			got, err := Decode(b)
			if err != nil {
				t.Fatalf("%s size=%d: Decode: %v", p.name, size, err)
			}
			if !payloadEqual(p.payload, got) {
				t.Errorf("%s size=%d: round trip mismatch", p.name, size)
			}
		}
	}
}

func TestEncodePayloadOversize(t *testing.T) {
	big := make([]byte, ba.MaxPayloadBytes+1)
	if _, err := Encode(ba.TCPayload{Data: big}); !errors.Is(err, ErrPayloadSize) {
		t.Errorf("TCPayload over cap: err = %v, want ErrPayloadSize", err)
	}
	if _, err := Encode(ba.TCPayloadEcho{Data: big, Valid: true}); !errors.Is(err, ErrPayloadSize) {
		t.Errorf("TCPayloadEcho over cap: err = %v, want ErrPayloadSize", err)
	}
	if _, err := AppendEncode(nil, ba.TCPayload{Data: big}); !errors.Is(err, ErrPayloadSize) {
		t.Errorf("AppendEncode over cap: err = %v, want ErrPayloadSize", err)
	}
	// Exactly at the cap is legal.
	atCap := make([]byte, ba.MaxPayloadBytes)
	if _, err := Encode(ba.TCPayload{Data: atCap}); err != nil {
		t.Errorf("TCPayload at cap: %v", err)
	}
}

func TestDecodePayloadHugeLength(t *testing.T) {
	// A frame claiming 2^40 payload bytes must be rejected by the cap
	// check before any allocation — the blob twin of the huge-share-count
	// test.
	b := []byte{byte(ClassTCPayload)}
	b = binary.BigEndian.AppendUint64(b, 1<<40)
	if _, err := Decode(b); !errors.Is(err, ErrPayloadSize) {
		t.Errorf("huge length claim: err = %v, want ErrPayloadSize", err)
	}
	if _, err := decode(b, true); !errors.Is(err, ErrPayloadSize) {
		t.Errorf("huge length claim (alias): err = %v, want ErrPayloadSize", err)
	}
	// A negative length (sign bit set) is likewise a size error, not a
	// panic or a wraparound allocation.
	neg := []byte{byte(ClassTCPayload)}
	neg = binary.BigEndian.AppendUint64(neg, 1<<63)
	if _, err := Decode(neg); !errors.Is(err, ErrPayloadSize) {
		t.Errorf("negative length claim: err = %v, want ErrPayloadSize", err)
	}
}

func TestDecodePayloadMalformed(t *testing.T) {
	full := mustEncode(ba.TCPayload{Data: bytes.Repeat([]byte{0xaa}, 100)})
	echo := mustEncode(ba.TCPayloadEcho{Data: []byte{1, 2, 3}, Valid: true})
	tests := []struct {
		name string
		b    []byte
	}{
		{"payload cut mid-prefix", full[:5]},
		{"payload cut mid-blob", full[:40]},
		{"payload trailing byte", append(append([]byte(nil), full...), 0xee)},
		{"echo missing valid byte", echo[:len(echo)-1]},
		{"echo trailing byte", append(append([]byte(nil), echo...), 0x01)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.b); err == nil {
				t.Error("malformed payload frame decoded (copy path)")
			}
			if _, err := decode(tt.b, true); err == nil {
				t.Error("malformed payload frame decoded (alias path)")
			}
		})
	}
}

// TestDecodePayloadCopies pins the ownership rule the pooled-buffer
// transport relies on: the default Decode must copy blob bytes out of
// the frame, so scribbling the frame afterward cannot change a decoded
// payload.
func TestDecodePayloadCopies(t *testing.T) {
	data := bytes.Repeat([]byte{0x42}, 256)
	frame := mustEncode(ba.TCPayload{Data: data})
	p, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] ^= 0xff
	}
	got := p.(ba.TCPayload)
	if !bytes.Equal(got.Data, data) {
		t.Fatal("Decode aliased the frame: payload changed under buffer reuse")
	}
}

// TestDecodeAliasAliases pins the inverse contract: the decode body in
// aliasing mode hands back sub-slices of the input, zero-copy, and
// agrees with Decode on every accepted input.
func TestDecodeAliasAliases(t *testing.T) {
	data := bytes.Repeat([]byte{0x42}, 256)
	frame := mustEncode(ba.TCPayloadEcho{Data: data, Valid: true})
	p, err := decode(frame, true)
	if err != nil {
		t.Fatal(err)
	}
	got := p.(ba.TCPayloadEcho)
	if !bytes.Equal(got.Data, data) || !got.Valid {
		t.Fatalf("aliasing decode round trip mismatch")
	}
	frame[len(frame)-2] ^= 0xff // inside the blob (last blob byte precedes the valid byte)
	if bytes.Equal(got.Data, data) {
		t.Fatal("aliasing decode copied: mutation of the frame did not show through")
	}
	// Non-blob classes decode exactly as the copying Decode does.
	for _, sample := range samplePayloads() {
		raw := mustEncode(sample)
		viaAlias, errA := decode(append([]byte(nil), raw...), true)
		viaCopy, errC := Decode(raw)
		if (errA == nil) != (errC == nil) {
			t.Fatalf("%T: alias err=%v copy err=%v", sample, errA, errC)
		}
		if errA == nil && !payloadEqual(viaAlias, viaCopy) {
			t.Errorf("%T: aliasing decode and Decode disagree", sample)
		}
	}
}

// TestDecoderDecodeAlias pins the transport's decode entry point: the
// two blob classes alias the input and never enter the intern cache,
// and every other class takes the interning Decode unchanged.
func TestDecoderDecodeAlias(t *testing.T) {
	d := NewDecoder()
	for _, blob := range []sim.Payload{
		ba.TCPayload{Data: bytes.Repeat([]byte{0x42}, 256)},
		ba.TCPayloadEcho{Data: bytes.Repeat([]byte{0x42}, 256), Valid: true},
	} {
		frame := mustEncode(blob)
		p, err := d.DecodeAlias(frame)
		if err != nil || !payloadEqual(p, blob) {
			t.Fatalf("%T: p=%v err=%v", blob, p, err)
		}
		frame[32] ^= 0xff // inside the blob
		if payloadEqual(p, blob) {
			t.Errorf("%T: Decoder.DecodeAlias copied the blob", blob)
		}
	}
	if len(d.cache) != 0 {
		t.Errorf("blob classes entered the intern cache: %d entries", len(d.cache))
	}
	echo := mustEncode(proxcensus.EchoPayload{Z: 3, H: 1})
	first, err := d.DecodeAlias(echo)
	if err != nil || len(d.cache) != 1 {
		t.Fatalf("non-blob class must intern: err=%v cache=%d", err, len(d.cache))
	}
	if again, _ := d.DecodeAlias(echo); again != first {
		t.Errorf("interned payload not reused: %v != %v", again, first)
	}
	if _, err := d.DecodeAlias(nil); err == nil {
		t.Error("empty input must fail")
	}
}

// FuzzDecodePayload drives the blob decode path with arbitrary bytes:
// never panic, accepted inputs re-encode canonically (fixpoint), and
// the copy and alias paths agree verdict-for-verdict.
func FuzzDecodePayload(f *testing.F) {
	for _, p := range []interface {
		SigCount() int
		ByteSize() int
	}{
		ba.TCPayload{Data: []byte("seed")},
		ba.TCPayload{},
		ba.TCPayload{Data: bytes.Repeat([]byte{0x77}, 2048)},
		ba.TCPayloadEcho{Data: []byte{1}, Valid: true},
		ba.TCPayloadEcho{Valid: false},
	} {
		b, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	huge := []byte{byte(ClassTCPayload)}
	huge = binary.BigEndian.AppendUint64(huge, 1<<40)
	f.Add(huge)
	f.Add([]byte{byte(ClassTCPayloadEcho), 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		pa, errA := decode(append([]byte(nil), data...), true)
		if (err == nil) != (errA == nil) {
			t.Fatalf("copy/alias verdict split: copy err=%v alias err=%v", err, errA)
		}
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if !payloadEqual(p, pa) {
			t.Fatalf("copy and alias decode disagree on %x", data)
		}
		re, err := Encode(p)
		if err != nil {
			t.Fatalf("decoded %T but cannot re-encode: %v", p, err)
		}
		p2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded form does not decode: %v", err)
		}
		re2, err := Encode(p2)
		if err != nil || !bytes.Equal(re, re2) {
			t.Fatalf("payload encoding not canonical: %x vs %x (err=%v)", re, re2, err)
		}
	})
}
