// Multivalued-payload codec support: length-prefixed byte blobs for
// the ℓ-bit Turpin-Coan classes (ba.TCPayload, ba.TCPayloadEcho), with
// the same two-tier decode discipline as the frame layer — copied out
// by default so results outlive the input, aliased for callers that
// own the buffer lifetime (the transport's receive path, whose frames
// travel with their batch, via Decoder.DecodeAlias). Blob
// lengths are capped at ba.MaxPayloadBytes on both sides, so a frame
// claiming a terabyte payload is rejected before any allocation.

package wire

import (
	"encoding/binary"
	"fmt"

	"proxcensus/internal/ba"
)

// appendBlob appends a length-prefixed byte blob.
func appendBlob(b []byte, data []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(len(data)))
	return append(b, data...)
}

// blob consumes a length-prefixed byte blob. Unless alias is set it
// copies the bytes out of the input, so the decoded payload never
// aliases it; with alias set it returns a three-index sub-slice of the
// input — zero-copy, caller owns the aliasing contract. A zero-length
// blob returns nil.
func (r *reader) blob(alias bool) []byte {
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
	raw := r.buf[:count:count]
	r.buf = r.buf[count:]
	if alias {
		return raw
	}
	out := make([]byte, len(raw)) // make+copy of len(raw): one allocation, no zeroing
	copy(out, raw)
	return out
}
