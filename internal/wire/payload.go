// Multivalued-payload codec support: length-prefixed byte blobs for
// the ℓ-bit Turpin-Coan classes (ba.TCPayload, ba.TCPayloadEcho), with
// the same two-tier decode discipline as the frame layer — a copying
// default whose results outlive the input, and an explicit aliasing
// variant for callers that own the buffer lifetime (the transport's
// receive path, whose frames travel with their batch). Blob
// lengths are capped at ba.MaxPayloadBytes on both sides, so a frame
// claiming a terabyte payload is rejected before any allocation.

package wire

import (
	"encoding/binary"
	"fmt"

	"proxcensus/internal/ba"
	"proxcensus/internal/sim"
)

// appendBlob appends a length-prefixed byte blob.
func appendBlob(b []byte, data []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(len(data)))
	return append(b, data...)
}

// blob consumes a length-prefixed byte blob, copying the bytes out of
// the input so the decoded payload never aliases it and may be held
// for as long as the caller likes.
func (r *reader) blob() []byte {
	raw := r.blobAlias()
	if raw == nil {
		return nil
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out
}

// blobAlias consumes a length-prefixed byte blob as a three-index
// sub-slice of the input — zero-copy, caller owns the aliasing
// contract. A zero-length blob returns nil.
func (r *reader) blobAlias() []byte {
	count := r.int64()
	if r.err != nil {
		return nil
	}
	if count < 0 || count > ba.MaxPayloadBytes {
		r.err = fmt.Errorf("%w: %d payload bytes", ErrPayloadSize, count)
		return nil
	}
	if int64(len(r.buf)) < count {
		r.err = ErrTruncated
		return nil
	}
	if count == 0 {
		return nil
	}
	out := r.buf[:count:count]
	r.buf = r.buf[count:]
	return out
}

// DecodeAlias deserializes a payload like Decode, but for the
// blob-carrying multivalued classes the decoded Data sub-slices b
// (three-index, so appends cannot clobber neighbors) instead of being
// copied out. All other classes decode exactly as Decode does — their
// fixed-width fields are copied by construction. The caller owns the
// aliasing contract: b must stay untouched for as long as any decoded
// payload is live. The transport's receive path meets it by releasing
// a frame only after Machine.Deliver returns (Decoder.DecodeAlias);
// callers that cannot bound the payload's lifetime use Decode.
func DecodeAlias(b []byte) (sim.Payload, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	switch Class(b[0]) {
	case ClassTCPayload:
		r := reader{buf: b[1:]}
		return finish(ba.TCPayload{Data: r.blobAlias()}, &r)
	case ClassTCPayloadEcho:
		r := reader{buf: b[1:]}
		data := r.blobAlias()
		valid := r.byte() == 1
		return finish(ba.TCPayloadEcho{Data: data, Valid: valid}, &r)
	default:
		return Decode(b)
	}
}
