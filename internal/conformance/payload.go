// Conformance surface for the ℓ-bit multivalued payload family: a
// Target over ba.NewMultivaluedPayloadOneShot whose executions carry
// kilobyte-scale byte strings, a Space whose palettes cover payload
// equivocation (both vocabulary values, deliverable per recipient) and
// garbage payloads (bytes no honest party input, empty payloads, and
// invented-bytes echoes — the data-availability attack), and a
// PayloadLegality oracle for the property the int-domain oracles
// cannot see: honest parties never decide bytes that were not some
// party's input.
//
// Run.Decisions stays the int-domain record the existing oracles
// judge: decided byte strings are mapped back to vocabulary ranks, ⊥
// to PayloadBotRank, and anything else to PayloadGarbageRank, so
// BAAgreement/BAValidity/Termination apply unchanged and the legality
// oracle polices the garbage rank.

package conformance

import (
	"bytes"
	"fmt"

	"proxcensus/internal/ba"
	"proxcensus/internal/sim"
)

const (
	// PayloadBotRank records a ⊥ (default, nil) payload decision.
	PayloadBotRank = -1
	// PayloadGarbageRank records a decided byte string outside the
	// execution's vocabulary — invented bytes, which PayloadLegality
	// turns into a violation.
	PayloadGarbageRank = -2
)

// PayloadVocab builds the two-value ℓ-byte vocabulary payload targets
// agree on: rank v is `size` repetitions of 'a'+v, so ranks are
// order-aligned with the byte strings' lexicographic order (the same
// injection the differential suite uses).
func PayloadVocab(size int) [][]byte {
	return [][]byte{
		bytes.Repeat([]byte{'a'}, size),
		bytes.Repeat([]byte{'b'}, size),
	}
}

// payloadGarbage is the canonical not-in-vocabulary payload: same
// length as the vocabulary entries but bytes no party inputs.
func payloadGarbage(size int) []byte {
	return bytes.Repeat([]byte{0xEE}, size)
}

// PayloadRank maps a decided byte string back to its vocabulary rank:
// nil/empty to PayloadBotRank, vocab[v] to v, anything else to
// PayloadGarbageRank.
func PayloadRank(vocab [][]byte, decided []byte) int {
	if len(decided) == 0 {
		return PayloadBotRank
	}
	for v, want := range vocab {
		if bytes.Equal(decided, want) {
			return v
		}
	}
	return PayloadGarbageRank
}

// RecordPayload adapts byte-string decisions to the int-domain Run
// record via PayloadRank over the vocabulary.
func RecordPayload(vocab [][]byte) func(run *Run, o any) error {
	return func(run *Run, o any) error {
		b, ok := o.([]byte)
		if !ok {
			return fmt.Errorf("conformance: output %T, want []byte payload decision", o)
		}
		run.Decisions = append(run.Decisions, PayloadRank(vocab, b))
		return nil
	}
}

// PayloadLegality is the no-invented-bytes oracle: a decided non-⊥
// payload must be byte-for-byte some party's input. Turpin-Coan
// guarantees it for t < n/3 — a decided value reached n-t round-1
// senders, at least t+1 of them honest — so any garbage-rank decision,
// and any vocabulary decision no honest party input, is a violation.
type PayloadLegality struct{}

// Name implements Oracle.
func (PayloadLegality) Name() string { return "payload-legality" }

// Check implements Oracle.
func (PayloadLegality) Check(r *Run) error {
	if r.Decisions == nil {
		return nil
	}
	for i, d := range r.Decisions {
		switch {
		case d == PayloadGarbageRank:
			return fmt.Errorf("conformance: party %d decided bytes outside the input vocabulary", r.Honest[i])
		case d >= 0 && !r.hasInput(d):
			return fmt.Errorf("conformance: party %d decided vocabulary rank %d no honest party input", r.Honest[i], d)
		}
	}
	return nil
}

// PayloadOracles returns the oracle suite for payload executions: the
// BA suite over ranks plus the no-invented-bytes legality oracle.
func PayloadOracles() []Oracle {
	return append(BAOracles(), PayloadLegality{})
}

// PayloadTarget builds the canonical conformance target for the ℓ-bit
// multivalued payload family at n=4, t=1: inputs are vocabulary ranks,
// machines run ba.NewMultivaluedPayloadOneShot over the rank's byte
// string with a nil default, and the full Space covers payload
// equivocation, garbage payloads, empty payloads, invented-bytes
// echoes and off-phase strays. The full space is Search territory;
// PayloadEquivocationSpace below is the exhaustively enumerable core.
func PayloadTarget(kappa, size int) (Target, Space, error) {
	const n, t = 4, 1
	if size < 1 || size > ba.MaxPayloadBytes {
		return Target{}, Space{}, fmt.Errorf("conformance: payload size %d outside 1..%d", size, ba.MaxPayloadBytes)
	}
	vocab := PayloadVocab(size)
	base, err := ba.NewSetup(n, t, ba.CoinIdeal, 42)
	if err != nil {
		return Target{}, Space{}, err
	}
	rounds := ba.MultivaluedOneShotRounds(kappa)
	tg := Target{
		Name: "mv-payload", N: n, T: t, Rounds: rounds,
		Machines: baMachines(base, payloadBuilder(kappa, vocab)),
		Record:   RecordPayload(vocab),
	}
	sp := Space{N: n, T: t, Rounds: rounds, Palettes: payloadPalettes(kappa, size, vocab)}
	return tg, sp, nil
}

// PayloadEquivocationSpace is the focused sub-space for exhaustive
// enumeration: round 1 lets each victim deliver either vocabulary
// value per recipient (payload equivocation), round 2 lets it echo
// either value or invented bytes as a supposedly quorum-backed
// candidate, and the binary core rounds are silence-only. Small enough
// that EnumerateStrategies covers every strategy at n=4, t=1.
func PayloadEquivocationSpace(kappa, size int) Space {
	const n, t = 4, 1
	vocab := PayloadVocab(size)
	rounds := ba.MultivaluedOneShotRounds(kappa)
	palettes := make([][]sim.Payload, rounds)
	palettes[0] = []sim.Payload{
		ba.TCPayload{Data: vocab[0]},
		ba.TCPayload{Data: vocab[1]},
	}
	palettes[1] = []sim.Payload{
		ba.TCPayloadEcho{Data: vocab[0], Valid: true},
		ba.TCPayloadEcho{Data: vocab[1], Valid: true},
		ba.TCPayloadEcho{Data: payloadGarbage(size), Valid: true},
	}
	return Space{N: n, T: t, Rounds: rounds, Palettes: palettes}
}

// payloadBuilder builds the payload family over vocabulary ranks: rank
// inputs become vocabulary byte strings, with a nil default.
func payloadBuilder(kappa int, vocab [][]byte) protoBuilder {
	return func(s *ba.Setup, inputs []int) (*ba.Protocol, error) {
		byteIn := make([][]byte, len(inputs))
		for i, v := range inputs {
			if v < 0 || v >= len(vocab) {
				return nil, fmt.Errorf("conformance: input rank %d outside vocabulary of %d", v, len(vocab))
			}
			byteIn[i] = vocab[v]
		}
		return ba.NewMultivaluedPayloadOneShot(s, kappa, byteIn, nil)
	}
}

// payloadPalettes covers the payload protocol's rounds: the two prefix
// rounds get the equivocation and garbage palettes (both vocabulary
// values, not-in-vocabulary bytes, an empty payload, invented-bytes
// and no-value echoes, and off-phase strays the machines must ignore
// by class), then the binary core's rounds reuse the one-shot echo
// palettes with a late payload-echo stray in the first.
func payloadPalettes(kappa, size int, vocab [][]byte) [][]sim.Payload {
	garbage := payloadGarbage(size)
	palettes := [][]sim.Payload{
		{
			ba.TCPayload{Data: vocab[0]},
			ba.TCPayload{Data: vocab[1]},
			ba.TCPayload{Data: garbage},
			ba.TCPayload{Data: nil},
			ba.TCPayloadEcho{Data: vocab[1], Valid: true}, // premature echo
		},
		{
			ba.TCPayloadEcho{Data: vocab[0], Valid: true},
			ba.TCPayloadEcho{Data: vocab[1], Valid: true},
			ba.TCPayloadEcho{Data: garbage, Valid: true}, // invented-bytes echo
			ba.TCPayloadEcho{Data: nil, Valid: false},
			ba.TCPayload{Data: garbage}, // late round-1 class
		},
	}
	inner := oneShotPalettes(kappa)
	inner[0] = append(inner[0], ba.TCPayloadEcho{Data: garbage, Valid: true}) // late payload echo
	return append(palettes, inner...)
}
