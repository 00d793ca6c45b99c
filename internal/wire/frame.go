// Transport framing: the hub and its nodes exchange length-prefixed
// frames whose bodies are either a hello (node identity plus resume
// round; mux.go adds the version byte) or a round batch (the round
// number plus a list of addressed payload blobs; mux.go adds the
// instance tag). The codec lives here rather than in the transport so
// it is pure — no sockets, no deadlines — and can be fuzzed alongside
// the payload codec.

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Framing errors.
var (
	// ErrBadFrame indicates a malformed hello or batch frame body.
	ErrBadFrame = errors.New("wire: malformed frame")
)

// MaxFrame bounds a single frame body (a full round batch) on the
// transport wire.
const MaxFrame = 64 << 20

// maxBatchMsgs bounds the message count a single batch frame may
// announce; anything larger is an attack or a bug, not traffic.
const maxBatchMsgs = 1 << 20

// maxRound bounds the round tag a frame may carry.
const maxRound = 1 << 30

// helloSize is the fixed body size of a hello frame: node ID plus the
// round the node is resuming from (0 on first contact).
const helloSize = 16

// BatchMsg is one addressed payload blob inside a batch frame. On the
// node→hub direction Addr is the recipient (or sim.Broadcast); on the
// hub→node direction it carries the sender.
type BatchMsg struct {
	Addr    int
	Payload []byte
}

// EncodeHello builds a hello frame body announcing a node's identity.
// A reconnecting node sets resume to the round it is re-joining; the
// first contact uses resume 0.
func EncodeHello(id, resume int) []byte {
	var b [helloSize]byte
	binary.BigEndian.PutUint64(b[:8], uint64(int64(id)))
	binary.BigEndian.PutUint64(b[8:], uint64(int64(resume)))
	return b[:]
}

// DecodeHello parses a hello frame body.
func DecodeHello(body []byte) (id, resume int, err error) {
	if len(body) != helloSize {
		return 0, 0, fmt.Errorf("%w: hello is %d bytes, want %d", ErrBadFrame, len(body), helloSize)
	}
	id = int(int64(binary.BigEndian.Uint64(body[:8])))
	resume = int(int64(binary.BigEndian.Uint64(body[8:])))
	if resume < 0 || resume > maxRound {
		return 0, 0, fmt.Errorf("%w: hello resume round %d", ErrBadFrame, resume)
	}
	return id, resume, nil
}

// AppendEncodeBatch builds a round-tagged batch frame body by appending
// to dst, returning the extended slice. The round tag lets the receiver
// discard stale or duplicated frames instead of desynchronizing. This
// is the pooled-buffer encode path: the transport reuses one frame
// buffer per instance across rounds, so steady-state sending allocates
// nothing, and a buffer that is too small grows to the frame's size in
// one step instead of climbing append's growth ladder.
//
//lint:hotpath
func AppendEncodeBatch(dst []byte, round int, msgs []BatchMsg) ([]byte, error) {
	if round < 0 || round > maxRound {
		//lint:hotpath cold path: encoder-side parameter bug, never live traffic
		return nil, fmt.Errorf("%w: batch round %d", ErrBadFrame, round)
	}
	size := 16
	for _, m := range msgs {
		size += 16 + len(m.Payload)
	}
	if size > MaxFrame {
		//lint:hotpath cold path: oversized batch, connection is abandoned
		return nil, fmt.Errorf("%w: batch of %d bytes exceeds frame limit", ErrBadFrame, size)
	}
	//lint:hotpath amortized: the buffer grows to the frame size once, then is reused
	dst = slices.Grow(dst, size)
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(round)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(msgs)))
	for _, m := range msgs {
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(m.Addr)))
		dst = binary.BigEndian.AppendUint64(dst, uint64(len(m.Payload)))
		dst = append(dst, m.Payload...)
	}
	return dst, nil
}

// DecodeBatchCapped parses a batch frame body into its round tag and
// messages, copying payload bytes out of the frame, and materializes at
// most maxMsgs messages (negative disables the cap): a frame announcing
// more is parsed up to the cap and the surplus is reported in dropped,
// with the remaining bytes ignored rather than treated as an error.
// This is the hub's flood control — a malicious node stuffing a frame
// to the 64 MiB limit cannot make the hub allocate past the cap, and
// truncation (unlike erroring) does not cost the node its connection.
func DecodeBatchCapped(body []byte, maxMsgs int) (round int, msgs []BatchMsg, dropped int, err error) {
	round, msgs, dropped, err = DecodeBatchAliasCapped(body, maxMsgs, nil)
	if err != nil {
		return 0, nil, 0, err
	}
	for i := range msgs {
		payload := make([]byte, len(msgs[i].Payload))
		copy(payload, msgs[i].Payload)
		msgs[i].Payload = payload
	}
	return round, msgs, dropped, nil
}

// DecodeBatchAliasCapped is the zero-copy core every batch decoder
// parses through: like DecodeBatchCapped, but message payloads alias
// body (three-index sub-slices, so a consumer appending to one cannot
// clobber its neighbor) and entries append into scratch instead of a
// fresh slice. The caller owns the aliasing contract — body must stay
// untouched until every returned payload has been decoded and screened
// (DESIGN.md "Ingress hot path"). A nil scratch grows a new backing
// array; a pooled scratch passed as scratch[:0] makes the steady-state
// parse allocation-free.
//
//lint:hotpath
func DecodeBatchAliasCapped(body []byte, maxMsgs int, scratch []BatchMsg) (round int, msgs []BatchMsg, dropped int, err error) {
	if len(body) < 16 {
		//lint:hotpath cold path: malformed frame, connection is abandoned
		return 0, nil, 0, fmt.Errorf("%w: short batch header", ErrBadFrame)
	}
	round = int(int64(binary.BigEndian.Uint64(body[:8])))
	if round < 0 || round > maxRound {
		//lint:hotpath cold path: malformed frame, connection is abandoned
		return 0, nil, 0, fmt.Errorf("%w: batch round %d", ErrBadFrame, round)
	}
	count := int(int64(binary.BigEndian.Uint64(body[8:16])))
	body = body[16:]
	if count < 0 || count > maxBatchMsgs {
		//lint:hotpath cold path: malformed frame, connection is abandoned
		return 0, nil, 0, fmt.Errorf("%w: absurd batch count %d", ErrBadFrame, count)
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
			return 0, nil, 0, fmt.Errorf("%w: truncated batch entry", ErrBadFrame)
		}
		addr := int(int64(binary.BigEndian.Uint64(body[:8])))
		plen := int(int64(binary.BigEndian.Uint64(body[8:16])))
		body = body[16:]
		if plen < 0 || plen > len(body) {
			//lint:hotpath cold path: malformed frame, connection is abandoned
			return 0, nil, 0, fmt.Errorf("%w: truncated payload", ErrBadFrame)
		}
		msgs = append(msgs, BatchMsg{Addr: addr, Payload: body[:plen:plen]})
		body = body[plen:]
	}
	if dropped == 0 && len(body) != 0 {
		//lint:hotpath cold path: malformed frame, connection is abandoned
		return 0, nil, 0, fmt.Errorf("%w: trailing batch bytes", ErrBadFrame)
	}
	return round, msgs, dropped, nil
}
