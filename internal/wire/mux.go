// Multiplexed transport framing: a protocol-version byte in the hello
// frame tells the instance-tagged mux framing (v2), which lets one
// shared TCP connection carry many concurrent protocol instances, from
// the retired one-execution-per-connection framing (v1), whose hello
// the transport still recognizes in order to refuse it with a pointed
// error. The batch codec below is the only one: an 8-byte instance tag,
// the round tag, then the addressed payload blobs, decoded through one
// flood-capped, zero-copy core.

package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Protocol versions announced by the hello frame. A 16-byte hello is
// implicitly VersionLegacy; a 17-byte hello carries its version in the
// final byte.
const (
	// VersionLegacy is the original framing: 16-byte hello, untagged
	// round-batch frames, one protocol execution per connection. No
	// endpoint speaks it any more; hubs refuse it at admission.
	VersionLegacy = 1
	// VersionMux is the multiplexed framing: versioned hello,
	// instance-tagged batch frames, many concurrent instances per
	// connection.
	VersionMux = 2
)

// helloSizeV is the body size of a versioned hello: the legacy body
// plus a trailing protocol-version byte.
const helloSizeV = helloSize + 1

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

// EncodeHelloVersion builds a hello frame announcing a node's identity
// and the framing it intends to speak. VersionLegacy produces the
// legacy 16-byte body, byte-identical to EncodeHello, so v1 peers are
// indistinguishable from pre-versioning builds on the wire.
func EncodeHelloVersion(id, resume, version int) []byte {
	if version == VersionLegacy {
		return EncodeHello(id, resume)
	}
	b := make([]byte, helloSizeV)
	binary.BigEndian.PutUint64(b[:8], uint64(int64(id)))
	binary.BigEndian.PutUint64(b[8:16], uint64(int64(resume)))
	b[helloSize] = byte(version)
	return b
}

// DecodeHelloVersion parses a hello frame body of either generation:
// a 16-byte body is a legacy (v1) hello, a 17-byte body carries its
// protocol version in the final byte. Anything else is malformed.
func DecodeHelloVersion(body []byte) (id, resume, version int, err error) {
	switch len(body) {
	case helloSize:
		id, resume, err = DecodeHello(body)
		return id, resume, VersionLegacy, err
	case helloSizeV:
		id, resume, err = DecodeHello(body[:helloSize])
		if err != nil {
			return 0, 0, 0, err
		}
		version = int(body[helloSize])
		if version < VersionLegacy {
			return 0, 0, 0, fmt.Errorf("%w: hello announced protocol version %d", ErrBadFrame, version)
		}
		return id, resume, version, nil
	default:
		return 0, 0, 0, fmt.Errorf("%w: hello is %d bytes, want %d (v1) or %d (versioned)",
			ErrBadFrame, len(body), helloSize, helloSizeV)
	}
}

// CheckVersion is the negotiation step an endpoint runs on the version
// a peer's hello announced: the framing after the hello is fixed per
// connection, so only an exact match is accepted. The error spells out
// both sides, so an old/new peer pairing fails with a pointed message
// at admission instead of an opaque malformed-frame error mid-round.
func CheckVersion(peer, local int) error {
	if peer == local {
		return nil
	}
	return fmt.Errorf("%w: protocol version mismatch: peer announced v%d, this endpoint speaks v%d "+
		"(v1 = legacy single-instance framing, v2 = instance-tagged mux framing)",
		ErrBadFrame, peer, local)
}

// AppendEncodeTaggedBatch builds a batch frame body — the 8-byte
// instance tag that lets a receiver demultiplex the protocol instances
// sharing one connection, the round tag that lets it discard stale or
// duplicated frames instead of desynchronizing, then the addressed
// payload blobs — by appending to dst, returning the extended slice.
// The transport reuses one frame buffer per instance across rounds, so
// steady-state sending allocates nothing, and a buffer that is too
// small grows to the frame's size in one step instead of climbing
// append's growth ladder.
//
//lint:hotpath
func AppendEncodeTaggedBatch(dst []byte, instance, round int, msgs []BatchMsg) ([]byte, error) {
	if instance < 0 || instance > maxInstance {
		//lint:hotpath cold path: encoder-side parameter bug, never live traffic
		return nil, fmt.Errorf("%w: batch instance %d", ErrBadFrame, instance)
	}
	if round < 0 || round > maxRound {
		//lint:hotpath cold path: encoder-side parameter bug, never live traffic
		return nil, fmt.Errorf("%w: batch round %d", ErrBadFrame, round)
	}
	size := batchHeader
	for _, m := range msgs {
		size += 16 + len(m.Payload)
	}
	if size > MaxFrame {
		//lint:hotpath cold path: oversized batch, connection is abandoned
		return nil, fmt.Errorf("%w: batch of %d bytes exceeds frame limit", ErrBadFrame, size)
	}
	//lint:hotpath amortized: the buffer grows to the frame size once, then is reused
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
//
//lint:hotpath
func DecodeTaggedBatchAliasCapped(body []byte, maxMsgs int, scratch []BatchMsg) (instance, round int, msgs []BatchMsg, dropped int, err error) {
	if len(body) < batchHeader {
		//lint:hotpath cold path: malformed frame, connection is abandoned
		return 0, 0, nil, 0, fmt.Errorf("%w: short batch header", ErrBadFrame)
	}
	instance = int(int64(binary.BigEndian.Uint64(body[:taggedHeader])))
	if instance < 0 || instance > maxInstance {
		//lint:hotpath cold path: malformed frame, connection is abandoned
		return 0, 0, nil, 0, fmt.Errorf("%w: batch instance %d", ErrBadFrame, instance)
	}
	round = int(int64(binary.BigEndian.Uint64(body[taggedHeader : taggedHeader+8])))
	if round < 0 || round > maxRound {
		//lint:hotpath cold path: malformed frame, connection is abandoned
		return 0, 0, nil, 0, fmt.Errorf("%w: batch round %d", ErrBadFrame, round)
	}
	count := int(int64(binary.BigEndian.Uint64(body[taggedHeader+8 : batchHeader])))
	body = body[batchHeader:]
	if count < 0 || count > maxBatchMsgs {
		//lint:hotpath cold path: malformed frame, connection is abandoned
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
			//lint:hotpath cold path: malformed frame, connection is abandoned
			return 0, 0, nil, 0, fmt.Errorf("%w: truncated batch entry", ErrBadFrame)
		}
		addr := int(int64(binary.BigEndian.Uint64(body[:8])))
		plen := int(int64(binary.BigEndian.Uint64(body[8:16])))
		body = body[16:]
		if plen < 0 || plen > len(body) {
			//lint:hotpath cold path: malformed frame, connection is abandoned
			return 0, 0, nil, 0, fmt.Errorf("%w: truncated payload", ErrBadFrame)
		}
		msgs = append(msgs, BatchMsg{Addr: addr, Payload: body[:plen:plen]})
		body = body[plen:]
	}
	if dropped == 0 && len(body) != 0 {
		//lint:hotpath cold path: malformed frame, connection is abandoned
		return 0, 0, nil, 0, fmt.Errorf("%w: trailing batch bytes", ErrBadFrame)
	}
	return instance, round, msgs, dropped, nil
}
