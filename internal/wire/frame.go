// Transport framing: the hub and its nodes exchange length-prefixed
// frames whose bodies are either a hello (node identity, resume round
// and protocol version) or an instance-tagged round batch (mux.go). The
// codec lives here rather than in the transport so it is pure — no
// sockets, no deadlines — and can be fuzzed alongside the payload
// codec.

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

// Protocol versions a hello frame announces.
const (
	// VersionLegacy is the retired one-execution-per-connection framing:
	// a 16-byte hello with no version byte, then untagged round batches.
	// No endpoint speaks it; hubs recognise its hello only to refuse it
	// with CheckVersion's error.
	VersionLegacy = 1
	// VersionMux is the multiplexed framing every endpoint speaks: a
	// versioned hello, then instance-tagged batch frames, many
	// concurrent instances per connection.
	VersionMux = 3
)

// legacyHelloSize is the v1 hello body: node ID plus the round the
// node is resuming from (0 on first contact). helloSize adds the
// trailing protocol-version byte.
const (
	legacyHelloSize = 16
	helloSize       = legacyHelloSize + 1
)

// BatchMsg is one addressed payload blob inside a batch frame. On the
// node→hub direction Addr is the recipient (or sim.Broadcast); on the
// hub→node direction it carries the sender.
type BatchMsg struct {
	Addr    int
	Payload []byte
}

// EncodeHello builds the hello frame body a node opens a connection
// with: its identity, the round it is resuming from (0 on first
// contact, the round it is re-joining on a reconnect) and VersionMux.
func EncodeHello(id, resume int) []byte {
	b := make([]byte, helloSize)
	binary.BigEndian.PutUint64(b[:8], uint64(int64(id)))
	binary.BigEndian.PutUint64(b[8:legacyHelloSize], uint64(int64(resume)))
	b[legacyHelloSize] = VersionMux
	return b
}

// DecodeHello parses a hello frame body of either generation: a
// 16-byte body is a v1 hello (VersionLegacy), a 17-byte body carries
// its version in the final byte. Anything else is malformed. The
// caller negotiates the version with CheckVersion.
func DecodeHello(body []byte) (id, resume, version int, err error) {
	switch len(body) {
	case legacyHelloSize:
		version = VersionLegacy
	case helloSize:
		version = int(body[legacyHelloSize])
		if version < VersionLegacy {
			return 0, 0, 0, fmt.Errorf("%w: hello announced protocol version %d", ErrBadFrame, version)
		}
	default:
		return 0, 0, 0, fmt.Errorf("%w: hello is %d bytes, want %d (v1) or %d (versioned)",
			ErrBadFrame, len(body), legacyHelloSize, helloSize)
	}
	id = int(int64(binary.BigEndian.Uint64(body[:8])))
	resume = int(int64(binary.BigEndian.Uint64(body[8:legacyHelloSize])))
	if resume < 0 || resume > maxRound {
		return 0, 0, 0, fmt.Errorf("%w: hello resume round %d", ErrBadFrame, resume)
	}
	return id, resume, version, nil
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
		"(v1 = legacy single-instance framing, v2 = instance-tagged mux framing, "+
		"v3 = v2 with back-referenced payloads)",
		ErrBadFrame, peer, local)
}
