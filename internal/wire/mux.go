// Multiplexed transport framing: the instance-tagged batch codec (the
// framing a VersionMux hello announces), which lets one shared TCP
// connection carry many concurrent protocol instances. It is the only
// batch codec: an 8-byte instance tag, the round tag, then the
// addressed payload blobs, each run of byte-equal blobs written once,
// decoded through one flood-capped, zero-copy core.

package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// maxInstance bounds the instance tag a mux frame may carry. It is
// deliberately enormous: a long-lived service allocates instance IDs
// monotonically and must not wrap within any realistic uptime.
const maxInstance = 1 << 62

// taggedHeader is the instance tag a batch body starts with, and
// batchHeader the whole fixed part: instance tag, round tag, message
// count, eight bytes each.
const (
	taggedHeader = 8
	batchHeader  = taggedHeader + 16
)

// backRef is the length a batch entry that back-references the frame's
// previous literal carries; on the wire it is -1's eight 0xFF bytes.
const backRef = -1

// AppendEncodeTaggedBatch builds a batch frame body — the 8-byte
// instance tag that lets a receiver demultiplex the protocol instances
// sharing one connection, the round tag that lets it discard stale or
// duplicated frames instead of desynchronizing, the message count, then
// one entry per message — by appending to dst, returning the extended
// slice.
//
// An entry is the message's 8-byte address, then an 8-byte length. A
// length of zero or more makes the entry a literal: that many payload
// bytes follow. A payload that is not empty and is byte-equal to the
// frame's previous literal is written as a back-reference instead: the
// length is backRef (-1), naming that literal, and no bytes follow. A
// broadcast the hub relays from n senders who sent the same bytes thus
// costs one payload and n entry headers, and a frame with no repeats is
// laid out exactly as in v2. Each payload is compared with one earlier
// payload only, so encoding takes time linear in the frame.
//
// The transport reuses its frame buffers across rounds and instances,
// so steady-state sending allocates nothing, and a buffer that is too
// small grows to the frame's size in one step instead of climbing
// append's growth ladder.
func AppendEncodeTaggedBatch(dst []byte, instance, round int, msgs []BatchMsg) ([]byte, error) {
	if instance < 0 || instance > maxInstance {
		return nil, fmt.Errorf("%w: batch instance %d", ErrBadFrame, instance)
	}
	if round < 0 || round > maxRound {
		return nil, fmt.Errorf("%w: batch round %d", ErrBadFrame, round)
	}
	size := batchHeader
	var last []byte // the previous literal
	for _, m := range msgs {
		size += 16
		if !repeats(m.Payload, last) {
			size += len(m.Payload)
			last = m.Payload
		}
	}
	if size > MaxFrame {
		return nil, fmt.Errorf("%w: batch of %d bytes exceeds frame limit", ErrBadFrame, size)
	}
	dst = slices.Grow(dst, size)
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(instance)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(round)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(msgs)))
	last = nil
	for _, m := range msgs {
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(m.Addr)))
		if repeats(m.Payload, last) {
			dst = binary.BigEndian.AppendUint64(dst, ^uint64(0)) // backRef
			continue
		}
		dst = binary.BigEndian.AppendUint64(dst, uint64(len(m.Payload)))
		dst = append(dst, m.Payload...)
		last = m.Payload
	}
	return dst, nil
}

// repeats reports whether payload p goes on the wire as a back-reference
// to the frame's previous literal, last: p is not empty and is
// byte-equal to last. The comparison returns at once when p is last
// itself (runtime memequal checks for identical pointers); byte-equal
// copies from different senders cost one memcmp.
func repeats(p, last []byte) bool {
	return len(p) > 0 && bytes.Equal(p, last)
}

// DecodeTaggedBatch parses an instance-tagged batch frame body.
// Payload bytes are copied out of the frame, each literal once: the
// entries that back-reference a literal share its copy, so writing
// through one such payload shows in the others. A frame therefore
// allocates at most one copy of its literal bytes plus a fixed amount
// per entry — one 1 MiB literal referenced by 255 entries costs one
// 1 MiB copy, not 256 (TestDecodeDoesNotAmplify).
func DecodeTaggedBatch(body []byte) (instance, round int, msgs []BatchMsg, err error) {
	instance, round, msgs, _, err = DecodeTaggedBatchCapped(body, maxBatchMsgs)
	return instance, round, msgs, err
}

// DecodeTaggedBatchCapped parses an instance-tagged batch frame like
// DecodeTaggedBatch but materializes at most maxMsgs messages (the
// flood control's cap; negative disables it). Payloads are copied out
// of the frame, each literal once and shared by its back-references, so
// the read buffer may be reused as soon as this returns — for callers
// with no frame lifetime to manage (tools, reference decodes in tests).
// The mux readers and RawClient parse with the aliasing core below and
// keep the frame alive instead.
func DecodeTaggedBatchCapped(body []byte, maxMsgs int) (instance, round int, msgs []BatchMsg, dropped int, err error) {
	instance, round, msgs, dropped, err = DecodeTaggedBatchAliasCapped(body, maxMsgs, nil)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	// The core resolves a back-reference to its literal's very slice, and
	// no two literals start at the same byte, so a payload starting where
	// the previous literal starts is a back-reference to it.
	var lit, kept []byte
	for i := range msgs {
		if p := msgs[i].Payload; len(p) == 0 || len(lit) == 0 || &p[0] != &lit[0] {
			lit, kept = p, make([]byte, len(p))
			copy(kept, p)
		}
		msgs[i].Payload = kept
	}
	return instance, round, msgs, dropped, nil
}

// DecodeTaggedBatchAliasCapped is the zero-copy core every batch
// decoder parses through: message payloads alias body (three-index
// sub-slices, so a consumer appending to one cannot clobber its
// neighbor), a back-reference resolves to the very sub-slice of the
// literal it names — the n entries relaying one broadcast alias one
// blob — and entries append into scratch instead of a fresh slice. The
// caller owns the aliasing contract — body must stay untouched until
// every returned payload has been decoded and screened (DESIGN.md
// "Ingress hot path"). A nil scratch grows a new backing array; a
// pooled scratch passed as scratch[:0] makes the steady-state parse
// allocation-free.
//
// The core accepts exactly what AppendEncodeTaggedBatch writes, so
// every frame it accepts re-encodes byte for byte: a back-reference
// must name the previous literal, which must not be empty, and a
// literal must not repeat the previous literal. Each literal is compared
// with one earlier literal, so parsing takes time linear in the frame.
//
// A frame announcing more than maxMsgs messages is parsed up to the
// cap and the surplus is reported in dropped, with the remaining bytes
// ignored rather than treated as an error. This is the flood control —
// a malicious node stuffing a frame to the 64 MiB limit cannot make
// the receiver allocate past the cap, and truncation (unlike erroring)
// does not cost the node its connection. Back-references are entries
// like any other and count toward the cap.
func DecodeTaggedBatchAliasCapped(body []byte, maxMsgs int, scratch []BatchMsg) (instance, round int, msgs []BatchMsg, dropped int, err error) {
	if len(body) < batchHeader {
		return 0, 0, nil, 0, fmt.Errorf("%w: short batch header", ErrBadFrame)
	}
	instance = int(int64(binary.BigEndian.Uint64(body[:taggedHeader])))
	if instance < 0 || instance > maxInstance {
		return 0, 0, nil, 0, fmt.Errorf("%w: batch instance %d", ErrBadFrame, instance)
	}
	round = int(int64(binary.BigEndian.Uint64(body[taggedHeader : taggedHeader+8])))
	if round < 0 || round > maxRound {
		return 0, 0, nil, 0, fmt.Errorf("%w: batch round %d", ErrBadFrame, round)
	}
	count := int(int64(binary.BigEndian.Uint64(body[taggedHeader+8 : batchHeader])))
	body = body[batchHeader:]
	if count < 0 || count > maxBatchMsgs {
		return 0, 0, nil, 0, fmt.Errorf("%w: absurd batch count %d", ErrBadFrame, count)
	}
	keep := count
	if maxMsgs >= 0 && keep > maxMsgs {
		keep = maxMsgs
		dropped = count - maxMsgs
	}
	msgs = scratch[:0]
	var last []byte // the previous literal
	for i := 0; i < keep; i++ {
		if len(body) < 16 {
			return 0, 0, nil, 0, fmt.Errorf("%w: truncated batch entry", ErrBadFrame)
		}
		addr := int(int64(binary.BigEndian.Uint64(body[:8])))
		plen := int(int64(binary.BigEndian.Uint64(body[8:16])))
		body = body[16:]
		switch {
		case plen < 0 && (plen != backRef || len(last) == 0):
			return 0, 0, nil, 0, fmt.Errorf("%w: batch entry %d has length %d, not a back-reference to a non-empty previous literal",
				ErrBadFrame, i, plen)
		case plen < 0:
			msgs = append(msgs, BatchMsg{Addr: addr, Payload: last})
		case plen > len(body):
			return 0, 0, nil, 0, fmt.Errorf("%w: truncated payload", ErrBadFrame)
		default:
			p := body[:plen:plen]
			if repeats(p, last) {
				return 0, 0, nil, 0, fmt.Errorf("%w: batch entry %d repeats the previous literal", ErrBadFrame, i)
			}
			msgs = append(msgs, BatchMsg{Addr: addr, Payload: p})
			last = p
			body = body[plen:]
		}
	}
	if dropped == 0 && len(body) != 0 {
		return 0, 0, nil, 0, fmt.Errorf("%w: trailing batch bytes", ErrBadFrame)
	}
	return instance, round, msgs, dropped, nil
}
