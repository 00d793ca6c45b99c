// Multivalued BA over ℓ-bit payloads: the Turpin-Coan prefix of
// multival.go lifted from int values to opaque byte strings, making
// kilobyte-scale client payloads — not digest stand-ins — the thing
// parties agree on. The prefix shape is identical to the digest
// variant: round 1 disseminates the input bytes, round 2 echoes the
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

	"proxcensus/internal/proxcensus"
	"proxcensus/internal/quorum"
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
// the bytes later keeps bytes of its own (tcPayloadPrefixThird copies
// the candidate it adopts unless it already holds it, as its input or
// its round-1 candidate).
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

// tcPayloadOutcome is the prefix stage output: the binary-BA input bit
// and the candidate bytes to adopt if the BA decides 1.
type tcPayloadOutcome struct {
	Bit  Value
	Cand []byte
}

// payloadCount is one distinct byte string of a prefix round and how
// many senders sent it. data aliases the delivered message, so a tally
// lives no longer than the Deliver call that built it.
type payloadCount struct {
	data  []byte
	count int
}

// tallyPayload counts data into tally. A byte string already in the
// tally costs one comparison per distinct entry and no allocation — a
// count map keyed by the bytes would build a key per message — and
// there are at most n entries, one per sender.
//
//lint:hotpath
func tallyPayload(tally []payloadCount, data []byte) []payloadCount {
	for i := range tally {
		if bytes.Equal(tally[i].data, data) {
			tally[i].count++
			return tally
		}
	}
	return append(tally, payloadCount{data: data, count: 1})
}

// tcPayloadPrefixThird is the 2-round ℓ-bit Turpin-Coan prefix for
// t < n/3, structurally the byte-string twin of tcPrefixThird: same
// rounds, same quorum thresholds, same first-per-sender rule, same
// deterministic tie-breaks (keys ascending, here lexicographically), so
// the bit it feeds the binary core is the one the digest prefix would
// compute on any injective digest of the same inputs — the property the
// differential suite pins. Delivered Data is only valid during Deliver,
// so everything is compared in place, and the one candidate a round
// keeps is copied unless the machine already holds equal bytes (keep).
type tcPayloadPrefixThird struct {
	n, t  int
	input []byte
	round int
	y     []byte
	yOK   bool
	out   tcPayloadOutcome
	tally []payloadCount // scratch for n senders, reused by both rounds
}

var _ sim.Machine = (*tcPayloadPrefixThird)(nil)

func newTCPayloadPrefixThird(n, t int, input []byte) *tcPayloadPrefixThird {
	return &tcPayloadPrefixThird{n: n, t: t, input: input, tally: make([]payloadCount, 0, max(n, 0))}
}

// keep returns bytes equal to data that outlive Deliver. It copies only
// when the machine holds no equal bytes already: under pre-agreement
// the round-1 candidate is the machine's own input and the round-2
// candidate is that same y, so neither round copies. Empty data keeps
// a non-nil empty slice, as a copy would — the candidate's nil-ness
// travels into the decided output.
func (m *tcPayloadPrefixThird) keep(data []byte) []byte {
	switch {
	case len(data) == 0:
		return []byte{}
	case bytes.Equal(data, m.y):
		return m.y
	case bytes.Equal(data, m.input):
		return m.input
	default:
		return bytes.Clone(data)
	}
}

// Start implements sim.Machine.
func (m *tcPayloadPrefixThird) Start() []sim.Send {
	return sim.BroadcastSend(TCPayload{Data: m.input})
}

// Deliver implements sim.Machine.
func (m *tcPayloadPrefixThird) Deliver(round int, in []sim.Message) []sim.Send {
	m.round = round
	switch round {
	case 1:
		var seen senderSet
		m.tally = m.tally[:0]
		for _, msg := range in {
			p, ok := msg.Payload.(TCPayload)
			if !ok || !seen.add(msg.From) {
				continue
			}
			m.tally = tallyPayload(m.tally, p.Data)
		}
		// The lexicographically smallest byte string with n-t support:
		// what an ascending walk over the distinct strings finds first.
		var y *payloadCount
		for i := range m.tally {
			if c := &m.tally[i]; quorum.Reached(c.count, m.n, m.t) && (y == nil || bytes.Compare(c.data, y.data) < 0) {
				y = c
			}
		}
		m.y, m.yOK = nil, y != nil
		if m.yOK {
			m.y = m.keep(y.data)
		}
		return sim.BroadcastSend(TCPayloadEcho{Data: m.y, Valid: m.yOK})
	case 2:
		var seen senderSet
		m.tally = m.tally[:0]
		for _, msg := range in {
			// An invalid echo does not use up its sender's slot.
			p, ok := msg.Payload.(TCPayloadEcho)
			if !ok || !p.Valid || !seen.add(msg.From) {
				continue
			}
			m.tally = tallyPayload(m.tally, p.Data)
		}
		// The most-echoed byte string, ties to the lexicographically
		// smallest: what an ascending walk that only moves on a strictly
		// higher count ends on.
		var best payloadCount
		for _, c := range m.tally {
			if c.count > best.count || (c.count == best.count && bytes.Compare(c.data, best.data) < 0) {
				best = c
			}
		}
		m.out = tcPayloadOutcome{}
		if best.count > 0 {
			m.out.Cand = m.keep(best.data)
		}
		if quorum.Reached(best.count, m.n, m.t) {
			m.out.Bit = 1
		}
	}
	return nil
}

// Output implements sim.Machine.
func (m *tcPayloadPrefixThird) Output() (any, bool) {
	if m.round < 2 {
		return nil, false
	}
	return m.out, true
}

// NewMultivaluedPayloadOneShot builds ℓ-bit multivalued BA for t < n/3:
// the 2-round byte-string Turpin-Coan prefix followed by the binary
// one-shot protocol. If the binary decision is 0, parties output
// defaultPayload (nil is a fine default — "no batch committed"). The
// round budget is MultivaluedOneShotRounds(kappa), identical to the
// digest variant, and the coin domain is shared with it so the two
// protocol families flip byte-identical coins under one setup — the
// anchor of the payload/digest differential equivalence suite.
func NewMultivaluedPayloadOneShot(setup *Setup, kappa int, inputs [][]byte, defaultPayload []byte) (*Protocol, error) {
	if setup == nil {
		return nil, fmt.Errorf("ba: nil setup")
	}
	if kappa < 1 {
		return nil, fmt.Errorf("ba: kappa must be >= 1, got %d", kappa)
	}
	if len(inputs) != setup.N {
		return nil, fmt.Errorf("ba: %d inputs for n=%d", len(inputs), setup.N)
	}
	for i, in := range inputs {
		if len(in) > MaxPayloadBytes {
			return nil, fmt.Errorf("ba: party %d input is %d bytes, cap is %d", i, len(in), MaxPayloadBytes)
		}
	}
	if len(defaultPayload) > MaxPayloadBytes {
		return nil, fmt.Errorf("ba: default payload is %d bytes, cap is %d", len(defaultPayload), MaxPayloadBytes)
	}
	if !quorum.TolerateThird(setup.N, setup.T) {
		return nil, fmt.Errorf("ba: multivalued payload one-shot needs t < n/3, got n=%d t=%d", setup.N, setup.T)
	}
	slots := proxcensus.ExpandSlots(kappa)
	comps, oracle := setup.CoinComponents(slots-1, "mv-oneshot")
	machines := make([]sim.Machine, setup.N)
	for i := range machines {
		party := i
		input := inputs[i]
		var cand []byte
		machines[i] = sim.NewChain([]sim.Stage{
			{Rounds: 2, New: func(any) sim.Machine {
				return newTCPayloadPrefixThird(setup.N, setup.T, input)
			}},
			{Rounds: OneShotRounds(kappa), New: func(prev any) sim.Machine {
				out := prev.(tcPayloadOutcome)
				cand = out.Cand
				return NewIterMachine(IterConfig{
					Slots:      slots,
					ProxRounds: kappa,
					Prox:       proxcensus.NewExpandMachine(setup.N, setup.T, kappa, out.Bit),
					Coin:       comps[party],
				})
			}},
			{Rounds: 0, New: func(prev any) sim.Machine {
				if prev.(Value) == 1 {
					return sim.NewFunc(cand)
				}
				return sim.NewFunc(defaultPayload)
			}},
		})
	}
	return &Protocol{
		Name: "multivalued-payload-n3", N: setup.N, T: setup.T,
		Rounds: MultivaluedOneShotRounds(kappa), Machines: machines, Oracle: oracle,
	}, nil
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
