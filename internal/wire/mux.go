// Multiplexed transport framing: the instance-tagged batch codec (the
// framing a VersionMux hello announces), which lets one shared TCP
// connection carry many concurrent protocol instances. It is the only
// batch codec: an 8-byte instance tag, the round tag, then the
// addressed payload blobs, decoded through one flood-capped, zero-copy
// core.

package wire

import (
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

// AppendEncodeTaggedBatch builds a batch frame body — the 8-byte
// instance tag that lets a receiver demultiplex the protocol instances
// sharing one connection, the round tag that lets it discard stale or
// duplicated frames instead of desynchronizing, then the addressed
// payload blobs — by appending to dst, returning the extended slice.
// The transport reuses one frame buffer per instance across rounds, so
// steady-state sending allocates nothing, and a buffer that is too
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
	for _, m := range msgs {
		size += 16 + len(m.Payload)
	}
	if size > MaxFrame {
		return nil, fmt.Errorf("%w: batch of %d bytes exceeds frame limit", ErrBadFrame, size)
	}
	dst = slices.Grow(dst, size)
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(instance)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(round)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(msgs)))
	for _, m := range msgs {
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(m.Addr)))
		dst = binary.BigEndian.AppendUint64(dst, uint64(len(m.Payload)))
		dst = append(dst, m.Payload...)
	}
	return dst, nil
}

// DecodeTaggedBatch parses an instance-tagged batch frame body.
// Payload bytes are copied out of the frame.
func DecodeTaggedBatch(body []byte) (instance, round int, msgs []BatchMsg, err error) {
	instance, round, msgs, _, err = DecodeTaggedBatchCapped(body, maxBatchMsgs)
	return instance, round, msgs, err
}

// DecodeTaggedBatchCapped parses an instance-tagged batch frame like
// DecodeTaggedBatch but materializes at most maxMsgs messages (the
// flood control's cap; negative disables it). Payloads are copied out
// of the frame, so the read buffer may be reused as soon as this
// returns — for callers with no frame lifetime to manage (RawClient,
// tools, reference decodes in tests). The mux readers parse with the
// aliasing core below and keep the frame alive instead.
func DecodeTaggedBatchCapped(body []byte, maxMsgs int) (instance, round int, msgs []BatchMsg, dropped int, err error) {
	instance, round, msgs, dropped, err = DecodeTaggedBatchAliasCapped(body, maxMsgs, nil)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	for i := range msgs {
		payload := make([]byte, len(msgs[i].Payload))
		copy(payload, msgs[i].Payload)
		msgs[i].Payload = payload
	}
	return instance, round, msgs, dropped, nil
}

// DecodeTaggedBatchAliasCapped is the zero-copy core every batch
// decoder parses through: message payloads alias body (three-index
// sub-slices, so a consumer appending to one cannot clobber its
// neighbor) and entries append into scratch instead of a fresh slice.
// The caller owns the aliasing contract — body must stay untouched
// until every returned payload has been decoded and screened
// (DESIGN.md "Ingress hot path"). A nil scratch grows a new backing
// array; a pooled scratch passed as scratch[:0] makes the steady-state
// parse allocation-free.
//
// A frame announcing more than maxMsgs messages is parsed up to the
// cap and the surplus is reported in dropped, with the remaining bytes
// ignored rather than treated as an error. This is the flood control —
// a malicious node stuffing a frame to the 64 MiB limit cannot make
// the receiver allocate past the cap, and truncation (unlike erroring)
// does not cost the node its connection.
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
	for i := 0; i < keep; i++ {
		if len(body) < 16 {
			return 0, 0, nil, 0, fmt.Errorf("%w: truncated batch entry", ErrBadFrame)
		}
		addr := int(int64(binary.BigEndian.Uint64(body[:8])))
		plen := int(int64(binary.BigEndian.Uint64(body[8:16])))
		body = body[16:]
		if plen < 0 || plen > len(body) {
			return 0, 0, nil, 0, fmt.Errorf("%w: truncated payload", ErrBadFrame)
		}
		msgs = append(msgs, BatchMsg{Addr: addr, Payload: body[:plen:plen]})
		body = body[plen:]
	}
	if dropped == 0 && len(body) != 0 {
		return 0, 0, nil, 0, fmt.Errorf("%w: trailing batch bytes", ErrBadFrame)
	}
	return instance, round, msgs, dropped, nil
}
