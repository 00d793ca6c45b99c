package ba

import (
	"encoding/binary"
	"math"
	"testing"

	"proxcensus/internal/sim"
)

// fuzzPrefixValues are the int values a fuzzed message can carry: small
// ones so ties and quorums are common, and the extremes so the injection
// below is exercised across the sign bit. math.MinInt is reserved for the
// empty byte string.
var fuzzPrefixValues = [...]Value{-2, -1, 0, 1, 2, 3, math.MaxInt, math.MinInt + 1}

// injectValue is the order-preserving injection of ints into byte
// strings the differential holds the two domains to: math.MinInt, the
// least int, goes to the least byte string, empty (nil or not, as asked);
// every other v to the big-endian bytes of uint64(v) ^ 1<<63.
func injectValue(v Value, nilEmpty bool) []byte {
	if v == math.MinInt {
		if nilEmpty {
			return nil
		}
		return []byte{}
	}
	return binary.BigEndian.AppendUint64(nil, uint64(v)^1<<63)
}

// projectBytes inverts injectValue on a candidate: nil is no candidate,
// which the int domain reports as 0.
func projectBytes(b []byte) Value {
	switch {
	case b == nil:
		return 0
	case len(b) == 0:
		return math.MinInt
	}
	return Value(binary.BigEndian.Uint64(b) ^ 1<<63)
}

// fuzzPrefixInboxes decodes raw, three bytes a message, into the same
// round inbox in both domains. A sender byte picks an ID in [-1, n] or
// one at or past the stack bitset's 1024; a class byte picks the round's
// own class most of the time, else the other round's, an invalid echo or
// the other domain's message; a value byte picks from fuzzPrefixValues
// or, for bytes, nil or empty.
func fuzzPrefixInboxes(n, round int, raw []byte) (ints, blobs []sim.Message) {
	for i := 0; i+2 < len(raw) && len(ints) < 4*n; i += 3 {
		from := int(raw[i])%(n+4) - 1
		if from > n {
			from = 1024 + int(raw[i])*(from-n-1)
		}
		v, nilEmpty := Value(math.MinInt), raw[i+2]%10 == 8
		if k := int(raw[i+2] % 10); k < len(fuzzPrefixValues) {
			v = fuzzPrefixValues[k]
		}
		b := injectValue(v, nilEmpty)
		var pi, pb sim.Payload
		switch class := raw[i+1] % 8; {
		case class < 3:
			pi, pb = valueDomain{}.msg(round, v, true), bytesDomain{}.msg(round, b, true)
		case class == 3:
			pi, pb = TCValue{V: v}, TCPayload{Data: b}
		case class == 4:
			pi, pb = TCEcho{V: v, Valid: true}, TCPayloadEcho{Data: b, Valid: true}
		case class == 5:
			pi, pb = TCEcho{V: v}, TCPayloadEcho{Data: b}
		case class == 6:
			pi, pb = bytesDomain{}.msg(round, b, true), valueDomain{}.msg(round, v, true)
		default:
			pi, pb = TCCandidate{V: v}, TCCandidate{V: v}
		}
		ints = append(ints, sim.Message{From: from, Round: round, Payload: pi})
		blobs = append(blobs, sim.Message{From: from, Round: round, Payload: pb})
	}
	return ints, blobs
}

// firstPayloads is the count-map filter in the byte domain: the data of
// each sender's first message of the round's class — in round 2 its
// first valid echo — whatever the sender's ID.
func firstPayloads(round int, in []sim.Message) [][]byte {
	seen := make(map[sim.PartyID]bool)
	var out [][]byte
	for _, msg := range in {
		data, ok := bytesDomain{}.read(round, msg.Payload)
		if !ok || seen[msg.From] {
			continue
		}
		seen[msg.From] = true
		out = append(out, data)
	}
	return out
}

// poison overwrites every byte a delivered message carries, as the
// transport does to a released frame under its tests' poison switch.
func poison(in []sim.Message) {
	for _, msg := range in {
		var data []byte
		switch p := msg.Payload.(type) {
		case TCPayload:
			data = p.Data
		case TCPayloadEcho:
			data = p.Data
		}
		for i := range data {
			data[i] = 0xDB
		}
	}
}

// FuzzTCPrefix holds the one Turpin-Coan prefix to its references in
// both domains over random round-1 and round-2 inboxes — the int
// instantiation to refDigestPrefix, the byte instantiation to
// refPrefixRound1/refPrefixRound2 — and the two instantiations to each
// other under injectValue, round by round. Thresholds run up to t = n-1,
// where two values can both reach n-t and only the tie-break decides.
// The byte machine's inboxes are poisoned after each Deliver: what it
// keeps must not alias them.
func FuzzTCPrefix(f *testing.F) {
	f.Add(4, 1, byte(3), []byte{1, 0, 3, 2, 0, 3, 3, 0, 3, 4, 0, 5}, []byte{1, 1, 3, 2, 1, 3, 3, 1, 3, 4, 1, 5})
	f.Add(6, 2, byte(8), []byte{1, 0, 8, 2, 0, 9, 3, 0, 8, 4, 0, 9}, []byte{1, 0, 8, 1, 1, 8, 2, 0, 9, 3, 2, 8})
	f.Add(5, 3, byte(0), []byte{0, 0, 6, 0, 0, 6, 9, 0, 7, 8, 3, 7, 1, 6, 0}, []byte{0, 5, 6, 0, 0, 6, 9, 0, 7, 8, 0, 7, 1, 7, 0})
	f.Add(3, 2, byte(255), []byte{}, []byte{1, 0, 0})

	f.Fuzz(func(t *testing.T, nRaw, tRaw int, inRaw byte, raw1, raw2 []byte) {
		n := int(uint(nRaw)%12) + 1
		tc := int(uint(tRaw) % uint(n)) // past n/3 too: the differential is about the rule, not resilience
		in := Value(math.MinInt)
		if k := int(inRaw % 10); k < len(fuzzPrefixValues) {
			in = fuzzPrefixValues[k]
		}
		r1i, r1b := fuzzPrefixInboxes(n, 1, raw1)
		r2i, r2b := fuzzPrefixInboxes(n, 2, raw2)
		ref := refDigestPrefix{n: n, t: tc}
		mi := newTCPrefixThird[Value, valueDomain](n, tc, in)
		mb := newTCPrefixThird[[]byte, bytesDomain](n, tc, injectValue(in, inRaw%2 == 0))

		// Round 1.
		wantY, wantOK := ref.round1(r1i)
		wantYB, wantOKB := refPrefixRound1(n, tc, firstPayloads(1, r1b))
		mi.Deliver(1, r1i)
		sends := mb.Deliver(1, r1b)
		poison(r1b)
		if mi.yOK != wantOK || (wantOK && mi.y != wantY) {
			t.Fatalf("ints round 1: y=%d ok=%t, count-map rule gives %d ok=%t", mi.y, mi.yOK, wantY, wantOK)
		}
		if mb.yOK != wantOKB || (wantOKB && !sameBytes(mb.y, wantYB)) {
			t.Fatalf("bytes round 1: y=%x ok=%t, sorted-key rule gives %x ok=%t", mb.y, mb.yOK, wantYB, wantOKB)
		}
		if echo := sends[0].Payload.(TCPayloadEcho); echo.Valid != mb.yOK || !sameBytes(echo.Data, mb.y) {
			t.Fatalf("bytes round 1 echoes %x valid=%t, holds %x ok=%t", echo.Data, echo.Valid, mb.y, mb.yOK)
		}
		if mi.yOK != mb.yOK || (mi.yOK && projectBytes(mb.y) != mi.y) {
			t.Fatalf("round 1 diverged: ints y=%d ok=%t, bytes y=%x ok=%t", mi.y, mi.yOK, mb.y, mb.yOK)
		}

		// Round 2.
		want := ref.round2(r2i)
		wantB := refPrefixRound2(n, tc, firstPayloads(2, r2b))
		mi.Deliver(2, r2i)
		mb.Deliver(2, r2b)
		poison(r2b)
		if mi.out != want {
			t.Fatalf("ints round 2: %+v, count-map rule gives %+v", mi.out, want)
		}
		if mb.out.Bit != wantB.Bit || !sameBytes(mb.out.Cand, wantB.Cand) {
			t.Fatalf("bytes round 2: bit=%d cand=%x, sorted-key rule gives bit=%d cand=%x",
				mb.out.Bit, mb.out.Cand, wantB.Bit, wantB.Cand)
		}
		if mi.out.Bit != mb.out.Bit || projectBytes(mb.out.Cand) != mi.out.Cand {
			t.Fatalf("round 2 diverged: ints %+v, bytes bit=%d cand=%x", mi.out, mb.out.Bit, mb.out.Cand)
		}
	})
}
