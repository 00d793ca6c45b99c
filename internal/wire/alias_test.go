package wire

import (
	"bytes"
	"testing"

	"proxcensus/internal/ba"
	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// TestAppendEncodeEquivalence: AppendEncode must produce byte-identical
// encodings to Encode for every payload class, both into nil and after
// an arbitrary prefix, and must leave the prefix intact.
func TestAppendEncodeEquivalence(t *testing.T) {
	prefix := []byte{0xde, 0xad, 0xbe, 0xef}
	for _, p := range samplePayloads() {
		want, err := Encode(p)
		if err != nil {
			t.Fatalf("Encode(%T): %v", p, err)
		}
		got, err := AppendEncode(nil, p)
		if err != nil {
			t.Fatalf("AppendEncode(nil, %T): %v", p, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("AppendEncode(nil, %T) = %x, want %x", p, got, want)
		}
		ext, err := AppendEncode(append([]byte(nil), prefix...), p)
		if err != nil {
			t.Fatalf("AppendEncode(prefix, %T): %v", p, err)
		}
		if !bytes.Equal(ext[:len(prefix)], prefix) {
			t.Errorf("AppendEncode(%T) clobbered its prefix", p)
		}
		if !bytes.Equal(ext[len(prefix):], want) {
			t.Errorf("AppendEncode(prefix, %T) suffix = %x, want %x", p, ext[len(prefix):], want)
		}
	}
}

func TestAppendEncodeUnknownPayload(t *testing.T) {
	if _, err := AppendEncode(nil, nil); err == nil {
		t.Error("AppendEncode(nil payload) succeeded")
	}
}

// TestDecodeAliasIndependence: after decoding through the alias path,
// mutating the source frame must not affect any decoded payload — the
// deterministic table-driven twin of FuzzDecodeAlias.
func TestDecodeAliasIndependence(t *testing.T) {
	msgs := make([]BatchMsg, 0, len(samplePayloads()))
	for i, p := range samplePayloads() {
		raw, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, BatchMsg{Addr: i, Payload: raw})
	}
	frame, err := AppendEncodeTaggedBatch(nil, 0, 5, msgs)
	if err != nil {
		t.Fatal(err)
	}

	var scratch [32]BatchMsg
	_, round, aliased, _, err := DecodeTaggedBatchAliasCapped(frame, -1, scratch[:0])
	if err != nil || round != 5 {
		t.Fatalf("DecodeTaggedBatchAliasCapped: round=%d err=%v", round, err)
	}
	if len(aliased) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(aliased), len(msgs))
	}

	dec := NewDecoder()
	decoded := make([]sim.Payload, len(aliased))
	snapshots := make([][]byte, len(aliased))
	for i, m := range aliased {
		p, err := dec.Decode(m.Payload)
		if err != nil {
			t.Fatalf("decode payload %d: %v", i, err)
		}
		decoded[i] = p
		if snapshots[i], err = Encode(p); err != nil {
			t.Fatal(err)
		}
	}

	// Scribble over the whole frame: every decoded payload must be
	// unaffected, proving decode copied all cryptographic material out.
	for i := range frame {
		frame[i] ^= 0xff
	}
	for i, p := range decoded {
		re, err := Encode(p)
		if err != nil {
			t.Fatalf("re-encode payload %d after mutation: %v", i, err)
		}
		if !bytes.Equal(re, snapshots[i]) {
			t.Errorf("payload %d (%T) changed when its source frame was mutated", i, decoded[i])
		}
	}
}

// FuzzDecodeAlias drives the zero-copy frame path with arbitrary bytes:
// decode a frame aliased, decode every payload, then mutate the source
// frame — no already-decoded payload may change, so an Admitted
// payload's verification verdict can never be altered by buffer reuse.
func FuzzDecodeAlias(f *testing.F) {
	for _, p := range samplePayloads() {
		raw, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		frame, err := AppendEncodeTaggedBatch(nil, 0, 2, []BatchMsg{{Addr: 0, Payload: raw}, {Addr: 1, Payload: raw}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		// A far instance tag and a lone entry: what one node's send
		// frame in a long-lived service looks like.
		single, err := AppendEncodeTaggedBatch(nil, 1<<40, 2, []BatchMsg{{Addr: 0, Payload: raw}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(single)
	}
	f.Add([]byte{})
	// Back-references the core must refuse: first in the frame, after an
	// empty literal, and below -1.
	f.Add(handBatch(ref(0)))
	f.Add(handBatch(lit(0, nil), ref(1)))
	f.Add(handBatch(lit(0, []byte{7}), handEntry{1, -2, nil}))

	f.Fuzz(func(t *testing.T, data []byte) {
		frame := append([]byte(nil), data...)
		_, _, aliased, _, err := DecodeTaggedBatchAliasCapped(frame, -1, nil)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		dec := NewDecoder()
		var decoded []sim.Payload
		var snapshots [][]byte
		for _, m := range aliased {
			p, perr := dec.Decode(m.Payload)
			if perr != nil {
				continue
			}
			re, rerr := Encode(p)
			if rerr != nil {
				t.Fatalf("decoded %T but cannot re-encode: %v", p, rerr)
			}
			decoded = append(decoded, p)
			snapshots = append(snapshots, re)
		}
		for i := range frame {
			frame[i] ^= 0xa5
		}
		for i, p := range decoded {
			re, rerr := Encode(p)
			if rerr != nil {
				t.Fatalf("re-encode after mutation: %v", rerr)
			}
			if !bytes.Equal(re, snapshots[i]) {
				t.Fatalf("payload %d (%T) aliased its source frame", i, p)
			}
		}
	})
}

// TestDecodeBatchAliasMatchesCopy: both decode paths must agree on
// round, structure, and payload bytes for well-formed and capped
// frames.
func TestDecodeBatchAliasMatchesCopy(t *testing.T) {
	frame, err := AppendEncodeTaggedBatch(nil, 71, 9, []BatchMsg{
		{Addr: -1, Payload: []byte{1, 2, 3}},
		{Addr: 4, Payload: nil},
		{Addr: 2, Payload: bytes.Repeat([]byte{0xcc}, 60)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{-1, 0, 1, 2, 3, 100} {
		ic, rc, mc, dc, errC := DecodeTaggedBatchCapped(frame, cap)
		ia, ra, ma, da, errA := DecodeTaggedBatchAliasCapped(frame, cap, nil)
		if (errC == nil) != (errA == nil) {
			t.Fatalf("cap=%d: copy err=%v alias err=%v", cap, errC, errA)
		}
		if errC != nil {
			continue
		}
		if ic != ia || rc != ra || dc != da || len(mc) != len(ma) {
			t.Fatalf("cap=%d: copy (i=%d r=%d d=%d n=%d) vs alias (i=%d r=%d d=%d n=%d)",
				cap, ic, rc, dc, len(mc), ia, ra, da, len(ma))
		}
		for i := range mc {
			if mc[i].Addr != ma[i].Addr || !bytes.Equal(mc[i].Payload, ma[i].Payload) {
				t.Fatalf("cap=%d msg %d: copy %+v vs alias %+v", cap, i, mc[i], ma[i])
			}
		}
	}
}

// TestAppendEncodeBatchEquivalence: the append-style batch encoder
// emits the same bytes after a prefix as into nil, preserves the
// prefix, and rejects a negative round.
func TestAppendEncodeBatchEquivalence(t *testing.T) {
	msgs := []BatchMsg{{Addr: 1, Payload: []byte{9, 8}}, {Addr: -1, Payload: nil}}
	want, err := AppendEncodeTaggedBatch(nil, 71, 3, msgs)
	if err != nil {
		t.Fatal(err)
	}
	prefixed, err := AppendEncodeTaggedBatch([]byte{0x77}, 71, 3, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if prefixed[0] != 0x77 || !bytes.Equal(prefixed[1:], want) {
		t.Fatal("AppendEncodeTaggedBatch mishandled its prefix")
	}
	if _, err := AppendEncodeTaggedBatch(nil, 71, -1, msgs); err == nil {
		t.Error("negative round encoded")
	}
}

// decoderSink keeps NewDecoder's result on the heap in
// TestNewDecoderAllocations.
var decoderSink *Decoder

// TestNewDecoderAllocations: the transport builds a Decoder for each
// instance slot a node opens, so building one is a single allocation;
// the intern cache waits for something to intern.
func TestNewDecoderAllocations(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { decoderSink = NewDecoder() }); allocs != 1 {
		t.Fatalf("NewDecoder made %.1f allocations, want 1", allocs)
	}
}

// TestDecoderInterning: byte-identical inputs return the cached
// payload; slice-carrying classes always decode fresh; the cache cap
// stops insertion but never rejects traffic.
func TestDecoderInterning(t *testing.T) {
	vote := proxcensus.LinearVote{V: 1, Share: share(4, 0xab)}
	raw := mustEncode(vote)

	t.Run("hit returns identical payload", func(t *testing.T) {
		d := NewDecoder()
		p1, err := d.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := d.Decode(append([]byte(nil), raw...))
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Error("second decode of identical bytes returned a different payload")
		}
	})
	t.Run("key is copied out of the input", func(t *testing.T) {
		d := NewDecoder()
		buf := append([]byte(nil), raw...)
		if _, err := d.Decode(buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xff // simulate frame-buffer reuse
		}
		p, err := d.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if p != sim.Payload(vote) {
			t.Error("cache corrupted by mutating a previously decoded input")
		}
	})
	t.Run("slice-carrying classes are not interned", func(t *testing.T) {
		d := NewDecoder()
		for _, p := range []sim.Payload{
			proxcensus.LinearSigmaCert{V: 2, Shares: []threshsig.Share{share(0, 1)}},
			proxcensus.LinearOmegaCert{V: 1},
			proxcensus.ProxcastSet{Pairs: []proxcensus.ProxcastPair{{Z: 1}}},
			ba.TCPayload{Data: []byte{1, 2, 3}},
			ba.TCPayloadEcho{Data: []byte{4, 5}, Valid: true},
		} {
			rawP := mustEncode(p)
			if _, err := d.Decode(rawP); err != nil {
				t.Fatalf("decode %T: %v", p, err)
			}
			if _, cached := d.cache[string(rawP)]; cached {
				t.Errorf("%T was interned", p)
			}
		}
	})
	t.Run("errors are not cached", func(t *testing.T) {
		d := NewDecoder()
		if _, err := d.Decode([]byte{0xff}); err == nil {
			t.Fatal("garbage decoded")
		}
		if len(d.cache) != 0 {
			t.Error("failed decode polluted the cache")
		}
	})
	t.Run("cache is built on the first internable insert", func(t *testing.T) {
		d := NewDecoder()
		if _, err := d.DecodeAlias(mustEncode(ba.TCPayload{Data: []byte{1}})); err != nil {
			t.Fatal(err)
		}
		if d.cache != nil {
			t.Error("a blob built the intern cache")
		}
		if _, err := d.Decode(raw); err != nil {
			t.Fatal(err)
		}
		if len(d.cache) != 1 {
			t.Errorf("cache holds %d entries after one internable decode, want 1", len(d.cache))
		}
	})
	t.Run("cap stops insertion not decoding", func(t *testing.T) {
		d := NewDecoder()
		for i := 0; i < internCap+50; i++ {
			e := proxcensus.EchoPayload{Z: i, H: i % 3}
			if _, err := d.Decode(mustEncode(e)); err != nil {
				t.Fatal(err)
			}
		}
		if len(d.cache) > internCap {
			t.Fatalf("cache grew to %d, cap is %d", len(d.cache), internCap)
		}
		p, err := d.Decode(mustEncode(proxcensus.EchoPayload{Z: -1234, H: 1}))
		if err != nil || p != sim.Payload(proxcensus.EchoPayload{Z: -1234, H: 1}) {
			t.Fatalf("full cache broke decoding: p=%v err=%v", p, err)
		}
		// Reset empties the full cache and keeps its map, so the next
		// instance interns again.
		d.Reset()
		if d.cache == nil || len(d.cache) != 0 {
			t.Fatalf("after Reset the cache is nil=%t with %d entries, want an empty map", d.cache == nil, len(d.cache))
		}
		if _, err := d.Decode(raw); err != nil {
			t.Fatal(err)
		}
		if _, cached := d.cache[string(raw)]; !cached {
			t.Error("a reset decoder did not intern")
		}
	})
}
