// Multivalued BA over ℓ-bit payloads: multival.go's one Turpin-Coan
// prefix run in the byte-string domain (bytesDomain), making
// kilobyte-scale client payloads — not digest stand-ins — the thing
// parties agree on. Only the domain differs from the digest family:
// round 1 disseminates the input bytes, round 2 echoes the
// n-t-supported candidate (re-broadcasting the bytes, so every honest
// party that needs the candidate holds it — the data-availability step
// digest agreement alone cannot give), and the binary one-shot core
// then decides between the common candidate and a default. Quorum
// intersection makes the candidate unique: two distinct byte strings
// cannot both reach n-t senders, and a round-2 quorum for one implies
// every honest party saw at least n-2t >= t+1 honest echoes of it.
//
// Only the t < n/3 one-shot family is lifted. The t < n/2 prefix rides
// on threshold-signed Proxcensus over int values; carrying bytes there
// needs either a payload-hashing indirection (reintroducing the
// data-availability gap) or proof-carrying byte dissemination, which
// is the coded-broadcast open item in ROADMAP.md — see DESIGN.md §13.

package ba

import (
	"bytes"
	"fmt"

	"proxcensus/internal/sim"
)

// MaxPayloadBytes is the hard ceiling on one multivalued payload. It
// bounds what the wire codec will decode and what the ingress screen
// will ever admit; deployments configure smaller caps on top of it
// (validate.Rules.MaxPayloadBytes, service.Config.MaxPayload).
const MaxPayloadBytes = 1 << 20

// TCPayload is the round-1 payload of the ℓ-bit prefix: the sender's
// multivalued input bytes. Data is immutable once sent (the sim.Payload
// contract), but a receiver may hold it only until Deliver returns: on
// the TCP path it sub-slices the received frame, which the transport
// releases right after the machine has stepped. A machine that needs
// the bytes later keeps bytes of its own (the prefix's bytesDomain.own
// copies the candidate it adopts unless the machine already holds it,
// as its input or its round-1 candidate).
type TCPayload struct {
	Data []byte
}

var _ sim.Payload = TCPayload{}

// SigCount implements sim.Payload.
func (TCPayload) SigCount() int { return 0 }

// ByteSize implements sim.Payload.
func (p TCPayload) ByteSize() int { return 8 + len(p.Data) }

// TCPayloadEcho is the round-2 payload: the sender's filtered candidate
// bytes, or "no value" when no input reached n-t support. Carrying the
// bytes (not a hash) is what makes the candidate available to honest
// parties whose own round 1 was partitioned away from it. Data has
// TCPayload's lifetime: valid until Deliver returns, copy to keep.
type TCPayloadEcho struct {
	Data  []byte
	Valid bool
}

var _ sim.Payload = TCPayloadEcho{}

// SigCount implements sim.Payload.
func (TCPayloadEcho) SigCount() int { return 0 }

// ByteSize implements sim.Payload.
func (p TCPayloadEcho) ByteSize() int { return 9 + len(p.Data) }

// bytesDomain is the byte-string domain: TCPayload and TCPayloadEcho on
// the wire, ties to the lexicographically smaller string.
type bytesDomain struct{}

func (bytesDomain) msg(round int, v []byte, valid bool) sim.Payload {
	if round == 1 {
		return TCPayload{Data: v}
	}
	return TCPayloadEcho{Data: v, Valid: valid}
}

func (bytesDomain) read(round int, p sim.Payload) ([]byte, bool) {
	if round == 1 {
		m, ok := p.(TCPayload)
		return m.Data, ok
	}
	m, ok := p.(TCPayloadEcho)
	return m.Data, ok && m.Valid
}

func (bytesDomain) equal(a, b []byte) bool { return bytes.Equal(a, b) }
func (bytesDomain) less(a, b []byte) bool  { return bytes.Compare(a, b) < 0 }

// own copies v only when neither y nor input holds equal bytes: under
// pre-agreement the round-1 candidate is the machine's own input and the
// round-2 candidate is that same y, so neither round copies. Empty v
// owns a non-nil empty slice, as a copy would — the candidate's
// nil-ness travels into the decided output.
func (bytesDomain) own(v, y, input []byte) []byte {
	switch {
	case len(v) == 0:
		return []byte{}
	case bytes.Equal(v, y):
		return y
	case bytes.Equal(v, input):
		return input
	default:
		return bytes.Clone(v)
	}
}

// NewMultivaluedPayloadOneShot builds ℓ-bit multivalued BA for t < n/3:
// the 2-round Turpin-Coan prefix over byte strings followed by the
// binary one-shot protocol. If the binary decision is 0, parties output
// defaultPayload (nil is a fine default — "no batch committed"). It is
// NewMultivaluedOneShot's chain in the byte domain: the same round
// budget, and the same coin domain, so under one setup the two families
// flip byte-identical coins — the anchor of the payload/digest
// differential suite.
func NewMultivaluedPayloadOneShot(setup *Setup, kappa int, inputs [][]byte, defaultPayload []byte) (*Protocol, error) {
	if err := checkPayloadInputs(inputs); err != nil {
		return nil, err
	}
	if len(defaultPayload) > MaxPayloadBytes {
		return nil, fmt.Errorf("ba: default payload is %d bytes, cap is %d", len(defaultPayload), MaxPayloadBytes)
	}
	return newMultivaluedThird[[]byte, bytesDomain]("multivalued-payload-n3", setup, kappa, inputs, defaultPayload)
}

// checkPayloadInputs rejects an input past MaxPayloadBytes.
func checkPayloadInputs(inputs [][]byte) error {
	for i, in := range inputs {
		if len(in) > MaxPayloadBytes {
			return fmt.Errorf("ba: party %d input is %d bytes, cap is %d", i, len(in), MaxPayloadBytes)
		}
	}
	return nil
}

// PayloadDecisions extracts the honest parties' byte-string decisions
// from a simulation result, ordered by party ID.
func PayloadDecisions(res *sim.Result) [][]byte {
	return PayloadDecisionsFromOutputs(res.HonestOutputs())
}

// PayloadDecisionsFromOutputs extracts byte-string decisions from raw
// machine outputs as the TCP transport returns them, skipping nil slots
// (crashed or dead nodes) and non-payload outputs. A nil []byte output
// (the usual default) is a decision, not a skipped slot.
func PayloadDecisionsFromOutputs(outputs []any) [][]byte {
	vals := make([][]byte, 0, len(outputs))
	for _, o := range outputs {
		if v, ok := o.([]byte); ok {
			vals = append(vals, v)
		}
	}
	return vals
}

// CheckPayloadAgreement verifies all honest byte-string decisions are
// equal.
func CheckPayloadAgreement(outputs [][]byte) error {
	for i := 1; i < len(outputs); i++ {
		if !bytes.Equal(outputs[i], outputs[0]) {
			return fmt.Errorf("%w: output[%d]=%d bytes vs output[0]=%d bytes", ErrDisagreement, i, len(outputs[i]), len(outputs[0]))
		}
	}
	return nil
}

// CheckPayloadValidity verifies that, given common honest input, every
// honest decision equals it byte-for-byte.
func CheckPayloadValidity(input []byte, outputs [][]byte) error {
	for i, out := range outputs {
		if !bytes.Equal(out, input) {
			return fmt.Errorf("%w: common %d-byte input but output[%d] differs (%d bytes)", ErrValidityBroken, len(input), i, len(out))
		}
	}
	return nil
}
