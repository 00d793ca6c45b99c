// Transport framing: the hub and its nodes exchange length-prefixed
// frames whose bodies are either a hello (node identity plus resume
// round; mux.go adds the version byte) or an instance-tagged round
// batch (mux.go). The codec lives here rather than in the transport so
// it is pure — no sockets, no deadlines — and can be fuzzed alongside
// the payload codec.

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
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
