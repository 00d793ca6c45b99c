// Package wire provides a compact binary codec for every protocol
// payload in this repository. The lock-step simulator passes payloads
// as Go values; the TCP transport (internal/transport) and any real
// deployment need a wire format. Encoding is deterministic and
// self-describing via a one-byte type tag.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"proxcensus/internal/ba"
	"proxcensus/internal/coin"
	"proxcensus/internal/crypto/sig"
	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// Errors returned by the codec.
var (
	// ErrUnknownPayload indicates an Encode call with an unregistered
	// payload type.
	ErrUnknownPayload = errors.New("wire: unknown payload type")
	// ErrTruncated indicates a Decode call on malformed bytes.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrBadTag indicates an unknown type tag on the wire.
	ErrBadTag = errors.New("wire: unknown type tag")
	// ErrPayloadSize indicates a multivalued payload over the hard
	// ba.MaxPayloadBytes cap, on either the encode or the decode side.
	ErrPayloadSize = errors.New("wire: payload exceeds size cap")
)

// Class is a payload class: the one-byte type tag every encoding
// starts with. It is the repository's one enumeration of the message
// classes the protocols speak; the ingress screen's phase tables,
// equivocation streams and evidence records all key on it. ClassUnknown
// is reserved, so accidental zero bytes fail loudly.
type Class byte

// Payload classes, in tag order. Adding a class means one row here, one
// name in classNames, one arm each in AppendEncode and Decode, and one
// rule in the ingress screen.
const (
	ClassUnknown Class = iota
	ClassEcho
	ClassLinearVote
	ClassLinearOmegaShare
	ClassLinearSigma
	ClassLinearOmega
	ClassLinearSigmaCert
	ClassLinearOmegaCert
	ClassQuadVote
	ClassQuadOmegaShare
	ClassQuadSig
	ClassProxcastSet
	ClassCoinShare
	ClassTCValue
	ClassTCEcho
	ClassTCCandidate
	ClassTCPayload
	ClassTCPayloadEcho
)

// classNames names each registered class; the names appear in
// equivocation evidence and the transport's logs.
var classNames = [...]string{
	ClassEcho:             "echo",
	ClassLinearVote:       "linear-vote",
	ClassLinearOmegaShare: "linear-omega-share",
	ClassLinearSigma:      "linear-sigma",
	ClassLinearOmega:      "linear-omega",
	ClassLinearSigmaCert:  "linear-sigma-cert",
	ClassLinearOmegaCert:  "linear-omega-cert",
	ClassQuadVote:         "quad-vote",
	ClassQuadOmegaShare:   "quad-omega-share",
	ClassQuadSig:          "quad-sig",
	ClassProxcastSet:      "proxcast-set",
	ClassCoinShare:        "coin-share",
	ClassTCValue:          "tc-value",
	ClassTCEcho:           "tc-echo",
	ClassTCCandidate:      "tc-candidate",
	ClassTCPayload:        "tc-payload",
	ClassTCPayloadEcho:    "tc-payload-echo",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if c.registered() {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// registered reports whether c is a class the codec encodes.
func (c Class) registered() bool {
	return c != ClassUnknown && int(c) < len(classNames)
}

// EncodedClass returns the class of an encoding: its tag byte, or
// ClassUnknown when b is empty or its tag is unregistered. Callers pass
// bytes from the wire, so nothing about b is assumed.
func EncodedClass(b []byte) Class {
	if len(b) == 0 {
		return ClassUnknown
	}
	if c := Class(b[0]); c.registered() {
		return c
	}
	return ClassUnknown
}

// Encode serializes a payload with its type tag into a fresh buffer.
func Encode(p sim.Payload) ([]byte, error) {
	return AppendEncode(nil, p)
}

// AppendEncode serializes a payload with its type tag, appending to
// dst and returning the extended slice (the append builder idiom, like
// strconv.AppendInt). It is the zero-copy core of the codec: the
// transport encodes a whole round's sends into one pooled arena with
// no per-payload allocation. Encode is AppendEncode into nil, so both
// paths produce byte-identical encodings by construction.
func AppendEncode(dst []byte, p sim.Payload) ([]byte, error) {
	switch v := p.(type) {
	case proxcensus.EchoPayload:
		return appendInts(append(dst, byte(ClassEcho)), int64(v.Z), int64(v.H)), nil
	case proxcensus.LinearVote:
		return appendShare(appendInts(append(dst, byte(ClassLinearVote)), int64(v.V)), v.Share), nil
	case proxcensus.LinearOmegaShare:
		return appendShare(appendInts(append(dst, byte(ClassLinearOmegaShare)), int64(v.V)), v.Share), nil
	case proxcensus.LinearSigma:
		return append(appendInts(append(dst, byte(ClassLinearSigma)), int64(v.V)), v.Sig[:]...), nil
	case proxcensus.LinearOmega:
		return append(appendInts(append(dst, byte(ClassLinearOmega)), int64(v.V)), v.Sig[:]...), nil
	case proxcensus.LinearSigmaCert:
		return appendShares(appendInts(append(dst, byte(ClassLinearSigmaCert)), int64(v.V)), v.Shares), nil
	case proxcensus.LinearOmegaCert:
		return appendShares(appendInts(append(dst, byte(ClassLinearOmegaCert)), int64(v.V)), v.Shares), nil
	case proxcensus.QuadVote:
		return appendShare(appendInts(append(dst, byte(ClassQuadVote)), int64(v.V)), v.Share), nil
	case proxcensus.QuadOmegaShare:
		return appendShare(appendInts(append(dst, byte(ClassQuadOmegaShare)), int64(v.V), int64(v.J)), v.Share), nil
	case proxcensus.QuadSig:
		return append(appendInts(append(dst, byte(ClassQuadSig)), int64(v.V), int64(v.J)), v.Sig[:]...), nil
	case proxcensus.ProxcastSet:
		out := appendInts(append(dst, byte(ClassProxcastSet)), int64(len(v.Pairs)))
		for _, pair := range v.Pairs {
			out = appendInts(out, int64(pair.Z))
			out = append(out, pair.Sig[:]...)
		}
		return out, nil
	case coin.SharePayload:
		return appendShare(appendInts(append(dst, byte(ClassCoinShare)), int64(v.K)), v.Share), nil
	case ba.TCValue:
		return appendInts(append(dst, byte(ClassTCValue)), int64(v.V)), nil
	case ba.TCEcho:
		b := appendInts(append(dst, byte(ClassTCEcho)), int64(v.V))
		if v.Valid {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case ba.TCCandidate:
		return append(appendInts(append(dst, byte(ClassTCCandidate)), int64(v.V)), v.Omega[:]...), nil
	case ba.TCPayload:
		if len(v.Data) > ba.MaxPayloadBytes {
			return nil, fmt.Errorf("%w: %d payload bytes", ErrPayloadSize, len(v.Data))
		}
		return appendBlob(append(dst, byte(ClassTCPayload)), v.Data), nil
	case ba.TCPayloadEcho:
		if len(v.Data) > ba.MaxPayloadBytes {
			return nil, fmt.Errorf("%w: %d payload bytes", ErrPayloadSize, len(v.Data))
		}
		b := appendBlob(append(dst, byte(ClassTCPayloadEcho)), v.Data)
		if v.Valid {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownPayload, p)
	}
}

// Decode deserializes a payload previously produced by Encode. The
// decoded payload never aliases b and may be held for as long as the
// caller likes.
func Decode(b []byte) (sim.Payload, error) {
	return decode(b, false)
}

// decode is the one payload decode body. With alias set, the two blob
// classes' Data sub-slices b (three-index, so appends cannot clobber
// neighbors) instead of being copied out; every other class's
// fixed-width fields are copied by construction, and certificate share
// lists are always freshly allocated, so alias changes nothing else.
// An aliasing caller owns the contract: b must stay untouched for as
// long as any decoded payload is live (Decoder.DecodeAlias).
func decode(b []byte, alias bool) (sim.Payload, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	r := reader{buf: b[1:]}
	switch Class(b[0]) {
	case ClassEcho:
		z, h := r.int64(), r.int64()
		return finish(proxcensus.EchoPayload{Z: int(z), H: int(h)}, &r)
	case ClassLinearVote:
		v := r.int64()
		s := r.share()
		return finish(proxcensus.LinearVote{V: int(v), Share: s}, &r)
	case ClassLinearOmegaShare:
		v := r.int64()
		s := r.share()
		return finish(proxcensus.LinearOmegaShare{V: int(v), Share: s}, &r)
	case ClassLinearSigma:
		v := r.int64()
		return finish(proxcensus.LinearSigma{V: int(v), Sig: threshsig.Signature(r.bytes32())}, &r)
	case ClassLinearOmega:
		v := r.int64()
		return finish(proxcensus.LinearOmega{V: int(v), Sig: threshsig.Signature(r.bytes32())}, &r)
	case ClassLinearSigmaCert:
		v := r.int64()
		return finish(proxcensus.LinearSigmaCert{V: int(v), Shares: r.shares()}, &r)
	case ClassLinearOmegaCert:
		v := r.int64()
		return finish(proxcensus.LinearOmegaCert{V: int(v), Shares: r.shares()}, &r)
	case ClassQuadVote:
		v := r.int64()
		return finish(proxcensus.QuadVote{V: int(v), Share: r.share()}, &r)
	case ClassQuadOmegaShare:
		v, j := r.int64(), r.int64()
		return finish(proxcensus.QuadOmegaShare{V: int(v), J: int(j), Share: r.share()}, &r)
	case ClassQuadSig:
		v, j := r.int64(), r.int64()
		return finish(proxcensus.QuadSig{V: int(v), J: int(j), Sig: threshsig.Signature(r.bytes32())}, &r)
	case ClassProxcastSet:
		count := r.int64()
		if count < 0 || count > 16 {
			return nil, fmt.Errorf("%w: %d proxcast pairs", ErrTruncated, count)
		}
		pairs := make([]proxcensus.ProxcastPair, 0, count)
		for i := int64(0); i < count; i++ {
			z := r.int64()
			pairs = append(pairs, proxcensus.ProxcastPair{Z: int(z), Sig: sig.Signature(r.bytes32())})
		}
		return finish(proxcensus.ProxcastSet{Pairs: pairs}, &r)
	case ClassCoinShare:
		k := r.int64()
		return finish(coin.SharePayload{K: int(k), Share: r.share()}, &r)
	case ClassTCValue:
		return finish(ba.TCValue{V: int(r.int64())}, &r)
	case ClassTCEcho:
		v := r.int64()
		valid := r.byte() == 1
		return finish(ba.TCEcho{V: int(v), Valid: valid}, &r)
	case ClassTCCandidate:
		v := r.int64()
		return finish(ba.TCCandidate{V: int(v), Omega: threshsig.Signature(r.bytes32())}, &r)
	case ClassTCPayload:
		return finish(ba.TCPayload{Data: r.blob(alias)}, &r)
	case ClassTCPayloadEcho:
		data := r.blob(alias)
		valid := r.byte() == 1
		return finish(ba.TCPayloadEcho{Data: data, Valid: valid}, &r)
	default:
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadTag, b[0])
	}
}

// finish returns the decoded payload unless the reader under- or
// over-ran.
func finish(p sim.Payload, r *reader) (sim.Payload, error) {
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(r.buf))
	}
	return p, nil
}

// appendInts appends big-endian int64s.
func appendInts(b []byte, vals ...int64) []byte {
	for _, v := range vals {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// appendShare appends a signature share (signer + MAC).
func appendShare(b []byte, s threshsig.Share) []byte {
	b = appendInts(b, int64(s.Signer))
	return append(b, s.MAC[:]...)
}

// appendShares appends a length-prefixed share list.
func appendShares(b []byte, shares []threshsig.Share) []byte {
	b = appendInts(b, int64(len(shares)))
	for _, s := range shares {
		b = appendShare(b, s)
	}
	return b
}

// reader is a consuming decoder with sticky errors.
type reader struct {
	buf []byte
	err error
}

func (r *reader) int64() int64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = ErrTruncated
		return 0
	}
	v := int64(binary.BigEndian.Uint64(r.buf[:8]))
	r.buf = r.buf[8:]
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.err = ErrTruncated
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

func (r *reader) bytes32() [32]byte {
	var out [32]byte
	if r.err != nil {
		return out
	}
	if len(r.buf) < 32 {
		r.err = ErrTruncated
		return out
	}
	copy(out[:], r.buf[:32])
	r.buf = r.buf[32:]
	return out
}

func (r *reader) share() threshsig.Share {
	signer := r.int64()
	mac := r.bytes32()
	return threshsig.Share{Signer: int(signer), MAC: mac}
}

func (r *reader) shares() []threshsig.Share {
	count := r.int64()
	if r.err != nil {
		return nil
	}
	if count < 0 || count > 1<<16 {
		r.err = fmt.Errorf("%w: %d shares", ErrTruncated, count)
		return nil
	}
	// One bounded allocation per decoded cert; certs are rare control traffic.
	out := make([]threshsig.Share, 0, count)
	for i := int64(0); i < count; i++ {
		out = append(out, r.share())
	}
	return out
}
