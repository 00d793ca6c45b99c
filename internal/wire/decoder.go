// Decode support for the steady-state ingress path: a payload-interning
// Decoder, with an aliasing entry point for callers that own the frame.
//
// Ownership rules (see DESIGN.md "Ingress hot path"): a payload decoded
// by Decode never aliases the input frame — every fixed-width field is
// copied into the payload value during decode, certificate share lists
// are freshly allocated because protocol machines retain those slices
// across rounds to Combine, and payload blobs are copied out. That
// property is what makes interning sound: an interned payload can be
// handed out again for a later byte-identical message. FuzzDecodeAlias
// pins the property. DecodeAlias relaxes it for exactly the two blob
// classes, whose Data then sub-slices the input. Both run the one
// decode body (wire.go), in copying and in aliasing mode.

package wire

import "proxcensus/internal/sim"

// internCap bounds the payloads a Decoder caches. Honest steady-state
// traffic is highly repetitive — the same (signer, value) share bytes
// recur every period — so a small cache catches nearly all of it. An
// adversary flooding distinct garbage fills the cache once and then
// degrades the decoder to plain per-message decoding, never worse.
const internCap = 4096

// Decoder decodes payloads like the package-level Decode but interns
// the results: a byte-identical encoding seen again returns the cached
// payload with no allocation. It is the per-connection decode state of
// the transport's receive loop and is not safe for concurrent use.
//
// Only payload classes whose decoded form is a pure value (no slices)
// are interned. Certificates and proxcast sets carry slices; sharing
// one decoded instance across deliveries would let one consumer's
// mutation leak into another's, so those classes always decode fresh.
//
// The transport keeps one Decoder per instance slot of a node and
// resets it between the instances the slot serves. An instance's honest
// traffic interns a handful of payloads, so the cache is built small,
// on the first insert: NewDecoder is one allocation.
type Decoder struct {
	cache map[string]sim.Payload
}

// NewDecoder builds an empty interning decoder.
func NewDecoder() *Decoder {
	return &Decoder{}
}

// Reset empties the intern cache and keeps its map. A cache carried
// from one instance into the next would fill with the earlier
// instances' batch digests up to internCap and then stop interning.
func (d *Decoder) Reset() { clear(d.cache) }

// Decode decodes b, consulting the intern cache first. The map lookup converts b without
// allocating (the compiler's m[string(b)] optimization); only a miss
// that inserts pays for the key copy, so a warmed cache decodes a
// steady-state round with zero allocations.
func (d *Decoder) Decode(b []byte) (sim.Payload, error) {
	if p, ok := d.cache[string(b)]; ok {
		return p, nil
	}
	p, err := decode(b, false)
	if err != nil {
		return nil, err
	}
	// b decoded, so it holds at least its tag byte.
	if internable(Class(b[0])) && len(d.cache) < internCap {
		if d.cache == nil {
			d.cache = make(map[string]sim.Payload)
		}
		d.cache[string(b)] = p
	}
	return p, nil
}

// DecodeAlias is Decode for a caller that owns b until every payload
// decoded from it is dead — the transport's receive path, where b is a
// received frame released only after Machine.Deliver returns. The two
// blob classes decode in aliasing mode, so Data sub-slices b instead
// of being copied out, and skip the intern cache
// they could never hit (the lookup would hash the whole blob for
// nothing). Every other class decodes exactly as Decode does.
func (d *Decoder) DecodeAlias(b []byte) (sim.Payload, error) {
	if len(b) > 0 && (Class(b[0]) == ClassTCPayload || Class(b[0]) == ClassTCPayloadEcho) {
		return decode(b, true)
	}
	return d.Decode(b)
}

// internable reports whether a decoded payload of class c may be cached
// and handed out more than once. Slice-carrying classes are excluded.
func internable(c Class) bool {
	switch c {
	case ClassLinearSigmaCert, ClassLinearOmegaCert, ClassProxcastSet, ClassTCPayload, ClassTCPayloadEcho:
		return false
	default:
		return true
	}
}
