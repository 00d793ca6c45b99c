package validate

import (
	"proxcensus/internal/ba"
	"proxcensus/internal/coin"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/wire"
)

// AllowNone is a ClassSet admitting no decodable payload class: it
// carries only the wire.ClassUnknown bit, which no decoded payload's
// tag carries (undecodable traffic is rejected as malformed before the
// type check). Use it for rounds where honest parties send nothing,
// e.g. the ideal-coin round.
const AllowNone ClassSet = 1 << uint(wire.ClassUnknown)

// Rules parameterizes a Validator for one protocol execution. It is
// plain data. The zero value of each field means "don't check": nil
// phase table admits any class, MaxValue 0 leaves values unbounded.
// Constructors below build the tables for the repo's protocol families.
// Rules hold no keys: shares, signatures and certificates are verified
// by the machines that use them, once, on every substrate.
type Rules struct {
	// N is the party count; senders outside [0, N) are rejected.
	N int

	// Period is the protocol's iteration length in rounds; Phase is
	// indexed by the local round (round-1) % Period. A zero Period or an
	// all-zero Phase entry admits every class for the affected rounds.
	// A positive Period also fixes two domains: an echo's grade is
	// capped at the most an expand Proxcensus reports in its local round,
	// and a coin share must be for instance (round-1) / Period, the
	// iteration the round belongs to.
	Period int
	Phase  []ClassSet

	// MaxValue, when positive, bounds protocol values (echo Z, vote V,
	// proxcast Z, TC values) to [0, MaxValue].
	MaxValue int

	// MaxPayloadBytes, when positive, bounds multivalued payload sizes
	// (TCPayload/TCPayloadEcho Data) below the hard ba.MaxPayloadBytes
	// wire cap. The payload service sets it to its batch ceiling so an
	// oversize flood is rejected at ingress, before any machine sees it.
	MaxPayloadBytes int
}

// withDefaults normalizes a rule set.
func (r Rules) withDefaults() Rules {
	if r.Period < 0 {
		r.Period = 0
	}
	return r
}

// General returns permissive rules: sender range, decode, duplicate
// and equivocation screening only. The baseline for executions the
// validator has no phase table for.
func General(n int) Rules { return Rules{N: n} }

// ForExpand returns rules for the standalone r-round expand Proxcensus
// (Prox_{2^r+1}): echoes only. Its Period caps the round-k grade at
// the maximum grade of the Prox_{2^{k-1}+1} the echo reports.
func ForExpand(n, rounds, maxValue int) Rules {
	phase := make([]ClassSet, rounds)
	for i := range phase {
		phase[i] = Classes(wire.ClassEcho)
	}
	return Rules{
		N:        n,
		Period:   rounds,
		Phase:    phase,
		MaxValue: maxValue,
	}
}

// expandGradeBound caps the grade an honest party can report in local
// expand round k: its pair comes from the previous round's
// Prox_{2^{k-1}+1}.
func expandGradeBound(round int) int {
	if round < 1 {
		return 0
	}
	return proxcensus.MaxGrade(proxcensus.ExpandSlots(round - 1))
}

// ForOneShot returns rules for the one-shot t < n/3 BA (Corollary 2):
// κ echo-expansion rounds then one coin round. The setup's coin mode
// sets the coin round's class: threshold shares, or nothing at all for
// the ideal coin.
func ForOneShot(n, kappa, maxValue int, mode ba.CoinMode) Rules {
	phase := make([]ClassSet, kappa+1)
	for i := 0; i < kappa; i++ {
		phase[i] = Classes(wire.ClassEcho)
	}
	phase[kappa] = AllowNone
	if mode == ba.CoinThreshold {
		phase[kappa] = Classes(wire.ClassCoinShare)
	}
	return Rules{
		N: n,
		// One iteration, so the coin round expects instance 0.
		Period:   kappa + 1,
		Phase:    phase,
		MaxValue: maxValue,
	}
}

// ForHalf returns rules for the t < n/2 iterated protocol (Corollary
// 2): ⌈κ/2⌉ iterations of the 3-round Prox_5, coin in parallel with
// the third round. Local round 1 carries votes; round 2 the combined
// Σ and the Ω shares of parties that reached Σ; round 3 late Σ
// forwards, combined Ω, and the iteration's coin shares.
func ForHalf(n int) Rules {
	return Rules{
		N:      n,
		Period: 3,
		Phase: []ClassSet{
			Classes(wire.ClassLinearVote),
			Classes(wire.ClassLinearSigma, wire.ClassLinearOmegaShare),
			Classes(wire.ClassLinearSigma, wire.ClassLinearOmega, wire.ClassCoinShare),
		},
		MaxValue: 1,
	}
}

// ForProxcast returns rules for the s-slot Proxcast of Appendix A:
// dealer-signed pair sets every round. The pair cap holds under every
// rule set.
func ForProxcast(n, rounds int) Rules {
	phase := make([]ClassSet, rounds)
	for i := range phase {
		phase[i] = Classes(wire.ClassProxcastSet)
	}
	return Rules{
		N:      n,
		Period: rounds,
		Phase:  phase,
	}
}

// ForPayloadService returns rules for the multivalued payload service:
// the permissive General screening plus the payload size cap — the one
// domain check that must hold before kilobyte blobs reach a machine.
func ForPayloadService(n, maxPayloadBytes int) Rules {
	return Rules{N: n, MaxPayloadBytes: maxPayloadBytes}
}

// payloadSizeOK applies the configured payload size cap.
func (r Rules) payloadSizeOK(size int) bool {
	if r.MaxPayloadBytes > 0 && size > r.MaxPayloadBytes {
		return false
	}
	return size <= ba.MaxPayloadBytes
}

// allowedAt returns the class restriction for a round, or nil when the
// round is unrestricted.
func (r Rules) allowedAt(round int) *ClassSet {
	if r.Period <= 0 || len(r.Phase) == 0 || round < 1 {
		return nil
	}
	idx := (round - 1) % r.Period
	if idx >= len(r.Phase) || r.Phase[idx] == 0 {
		return nil
	}
	return &r.Phase[idx]
}

// valueOK applies the MaxValue bound.
func (r Rules) valueOK(v int) bool {
	return r.MaxValue <= 0 || (v >= 0 && v <= r.MaxValue)
}

// inDomain checks payload values against the rule set's ranges.
func (r Rules) inDomain(round int, p sim.Payload) bool {
	switch v := p.(type) {
	case proxcensus.EchoPayload:
		if v.H < 0 {
			return false
		}
		if r.Period > 0 && v.H > expandGradeBound((round-1)%r.Period+1) {
			return false
		}
		return r.valueOK(v.Z)
	case proxcensus.LinearVote:
		return r.valueOK(v.V)
	case proxcensus.LinearOmegaShare:
		return r.valueOK(v.V)
	case proxcensus.LinearSigma:
		return r.valueOK(v.V)
	case proxcensus.LinearOmega:
		return r.valueOK(v.V)
	case proxcensus.LinearSigmaCert:
		return r.valueOK(v.V) && len(v.Shares) <= r.N
	case proxcensus.LinearOmegaCert:
		return r.valueOK(v.V) && len(v.Shares) <= r.N
	case proxcensus.QuadVote:
		return r.valueOK(v.V)
	case proxcensus.QuadOmegaShare:
		return r.valueOK(v.V) && v.J >= 0
	case proxcensus.QuadSig:
		return r.valueOK(v.V) && v.J >= 0
	case proxcensus.ProxcastSet:
		if len(v.Pairs) > proxcensus.MaxProxcastPairs {
			return false
		}
		for _, pair := range v.Pairs {
			if !r.valueOK(pair.Z) {
				return false
			}
		}
		return true
	case coin.SharePayload:
		return v.K >= 0 && (r.Period <= 0 || v.K == (round-1)/r.Period)
	case ba.TCValue:
		return r.valueOK(v.V)
	case ba.TCEcho:
		return r.valueOK(v.V)
	case ba.TCCandidate:
		return r.valueOK(v.V)
	case ba.TCPayload:
		return r.payloadSizeOK(len(v.Data))
	case ba.TCPayloadEcho:
		return r.payloadSizeOK(len(v.Data))
	default:
		return true
	}
}
