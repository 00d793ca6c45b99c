package proxcensus

import (
	"fmt"

	"proxcensus/internal/ba"
	"proxcensus/internal/crypto/sig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/quorum"
	"proxcensus/internal/sim"
)

// This file exposes the paper's core abstraction — s-slot Proxcensus
// (Definition 2) — directly, for users who want the graded primitive
// rather than full BA: all honest parties end in two adjacent slots of
// an s-slot line, with pre-agreement forced to the extremal slot.

// ProxResult is a Proxcensus output: a value and its grade in
// [0, MaxGrade(slots)].
type ProxResult = proxcensus.Result

// ProxFamily selects one of the paper's Proxcensus constructions.
type ProxFamily int

const (
	// ProxExpand is the perfectly secure echo-expansion protocol for
	// t < n/3: 2^r+1 slots in r rounds (Corollary 1).
	ProxExpand ProxFamily = iota + 1
	// ProxLinear is the threshold-signature protocol for t < n/2:
	// 2r-1 slots in r rounds (Lemma 3).
	ProxLinear
	// ProxQuadratic is the Appendix B protocol for t < n/2:
	// 3+(r-3)(r-2) slots in r rounds (Lemma 7).
	ProxQuadratic
)

// String implements fmt.Stringer.
func (f ProxFamily) String() string {
	switch f {
	case ProxExpand:
		return "expand"
	case ProxLinear:
		return "linear"
	case ProxQuadratic:
		return "quadratic"
	default:
		return fmt.Sprintf("ProxFamily(%d)", int(f))
	}
}

// Slots returns the slot count the family reaches in the given rounds.
func (f ProxFamily) Slots(rounds int) (int, error) {
	switch {
	case f == ProxExpand && rounds > proxcensus.MaxExpandRounds:
		return 0, fmt.Errorf("proxcensus: expand supports at most %d rounds (2^r+1 slots must fit an int), got %d", proxcensus.MaxExpandRounds, rounds)
	case f == ProxExpand && rounds >= 0:
		return proxcensus.ExpandSlots(rounds), nil
	case f == ProxLinear && rounds >= 2:
		return proxcensus.LinearSlots(rounds), nil
	case f == ProxQuadratic && rounds >= 3:
		return proxcensus.QuadSlots(rounds), nil
	default:
		return 0, fmt.Errorf("proxcensus: %s does not support %d rounds", f, rounds)
	}
}

// MaxGrade returns the top grade of an s-slot Proxcensus,
// floor((s-1)/2).
func MaxGrade(slots int) int { return proxcensus.MaxGrade(slots) }

// ProxExecution is the outcome of one Proxcensus run.
type ProxExecution struct {
	// Slots is the protocol's slot count.
	Slots int
	// Results holds each honest party's output, keyed by party ID.
	Results map[int]ProxResult
	// Metrics meters the execution.
	Metrics sim.Metrics
}

// HonestResults returns the outputs sorted by party ID.
func (e *ProxExecution) HonestResults() []ProxResult {
	out := make([]ProxResult, 0, len(e.Results))
	for p := 0; p < 1<<20; p++ {
		r, ok := e.Results[p]
		if !ok {
			continue
		}
		out = append(out, r)
		if len(out) == len(e.Results) {
			break
		}
	}
	return out
}

// RunProxcensus executes one Proxcensus instance of the chosen family
// among setup.N parties for the given round budget. The expand family
// checks t < n/3; the signature families check t < n/2 and use the
// setup's (n-t)-of-n scheme.
func RunProxcensus(setup *Setup, family ProxFamily, rounds int, inputs []Value, adv Adversary, seed int64) (*ProxExecution, error) {
	if setup == nil {
		return nil, fmt.Errorf("proxcensus: nil setup")
	}
	if len(inputs) != setup.N {
		return nil, fmt.Errorf("proxcensus: %d inputs for n=%d", len(inputs), setup.N)
	}
	slots, err := family.Slots(rounds)
	if err != nil {
		return nil, err
	}
	machines := make([]sim.Machine, setup.N)
	switch family {
	case ProxExpand:
		if !quorum.TolerateThird(setup.N, setup.T) {
			return nil, fmt.Errorf("proxcensus: expand family needs t < n/3, got n=%d t=%d", setup.N, setup.T)
		}
		for i := range machines {
			machines[i] = proxcensus.NewExpandMachine(setup.N, setup.T, rounds, inputs[i])
		}
	case ProxLinear:
		if !quorum.TolerateHalf(setup.N, setup.T) {
			return nil, fmt.Errorf("proxcensus: linear family needs t < n/2, got n=%d t=%d", setup.N, setup.T)
		}
		for i := range machines {
			machines[i] = proxcensus.NewLinearMachine(setup.N, setup.T, rounds, inputs[i], setup.ProxPK, setup.ProxSKs[i])
		}
	case ProxQuadratic:
		if !quorum.TolerateHalf(setup.N, setup.T) {
			return nil, fmt.Errorf("proxcensus: quadratic family needs t < n/2, got n=%d t=%d", setup.N, setup.T)
		}
		for i := range machines {
			machines[i] = proxcensus.NewQuadMachine(setup.N, setup.T, rounds, inputs[i], setup.ProxPK, setup.ProxSKs[i])
		}
	default:
		return nil, fmt.Errorf("proxcensus: unknown family %v", family)
	}
	res, err := sim.Run(sim.Config{N: setup.N, T: setup.T, Rounds: rounds, Seed: seed}, machines, adv)
	if err != nil {
		return nil, err
	}
	exec := &ProxExecution{
		Slots:   slots,
		Results: make(map[int]ProxResult, len(res.Outputs)),
		Metrics: res.Metrics,
	}
	for p, out := range res.Outputs {
		r, ok := out.(proxcensus.Result)
		if !ok {
			return nil, fmt.Errorf("proxcensus: party %d output %T", p, out)
		}
		exec.Results[p] = r
	}
	return exec, nil
}

// RenderSlotLine draws the paper's Fig. 1 picture for a binary-domain
// execution: the s slots as a line with honest occupancy counts. The
// adjacency guarantee shows up as at most two neighbouring non-zero
// counts.
func RenderSlotLine(slots int, results []ProxResult) (string, error) {
	return proxcensus.RenderSlotLine(slots, results)
}

// CheckProxConsistency verifies Definition 2's consistency over honest
// outputs of an s-slot execution.
func CheckProxConsistency(slots int, results []ProxResult) error {
	return proxcensus.CheckConsistency(slots, results)
}

// CheckProxValidity verifies Definition 2's validity for a common
// input.
func CheckProxValidity(slots int, input Value, results []ProxResult) error {
	return proxcensus.CheckValidity(slots, input, results)
}

// ProxcastRun parameterizes a single-sender s-slot Proxcast execution
// (Appendix A: s slots in s-1 rounds, tolerating t < n corruptions).
type ProxcastRun struct {
	// N is the party count; T the corruption budget (any t < n).
	N, T int
	// Slots is s >= 2; the protocol runs s-1 rounds.
	Slots int
	// Dealer is the sender's party ID; Input its value.
	Dealer int
	Input  Value
	// PlayerReplaceable enables the n-t forwarding quota (t < n/2
	// variant for per-round committee replacement).
	PlayerReplaceable bool
	// Adversary drives corrupted parties (nil for fault-free). If it
	// corrupts the dealer it may equivocate using the dealer key, which
	// is derived deterministically from Seed.
	Adversary Adversary
	// Seed drives key generation and the execution.
	Seed int64
}

// DealerKeys returns the dealer key pair a ProxcastRun will use —
// exposed so adversaries that corrupt the dealer can sign equivocating
// values.
func (r ProxcastRun) DealerKeys() (*sig.PublicKey, *sig.SecretKey) {
	return sig.KeyGen(r.Dealer, proxcastSeed(r.Seed))
}

// proxcastSeed expands a scalar seed for the dealer PKI.
func proxcastSeed(seed int64) [sig.Size]byte {
	var out [sig.Size]byte
	for i := 0; i < 8; i++ {
		out[i] = byte(seed >> (8 * i))
	}
	out[8] = 0xca
	return out
}

// RunProxcast executes the Appendix A protocol and returns each honest
// party's (value, grade).
func RunProxcast(run ProxcastRun) (*ProxExecution, error) {
	if run.Slots < 2 || run.N < 2 || run.T < 0 || run.T >= run.N {
		return nil, fmt.Errorf("proxcensus: invalid proxcast run n=%d t=%d s=%d", run.N, run.T, run.Slots)
	}
	if run.Dealer < 0 || run.Dealer >= run.N {
		return nil, fmt.Errorf("proxcensus: dealer %d out of range", run.Dealer)
	}
	pk, sk := run.DealerKeys()
	machines := proxcensus.NewProxcastMachines(proxcensus.ProxcastConfig{
		N: run.N, T: run.T, Slots: run.Slots, Dealer: run.Dealer,
		Input: run.Input, DealerPK: pk, DealerSK: sk, PlayerReplaceable: run.PlayerReplaceable,
	})
	res, err := sim.Run(sim.Config{N: run.N, T: run.T, Rounds: run.Slots - 1, Seed: run.Seed}, machines, run.Adversary)
	if err != nil {
		return nil, err
	}
	exec := &ProxExecution{
		Slots:   run.Slots,
		Results: make(map[int]ProxResult, len(res.Outputs)),
		Metrics: res.Metrics,
	}
	for p, out := range res.Outputs {
		r, ok := out.(proxcensus.Result)
		if !ok {
			return nil, fmt.Errorf("proxcensus: party %d output %T", p, out)
		}
		exec.Results[p] = r
	}
	return exec, nil
}

// NewSetupDistributed runs the dealerless setup: every party
// contributes entropy over the assumed broadcast channel (commit, then
// open) and both threshold schemes derive from the transcript. blobs[i]
// is party i's contribution (nil = abstain; at least one required).
func NewSetupDistributed(n, t int, mode CoinMode, blobs [][]byte) (*Setup, error) {
	return ba.NewSetupDistributed(n, t, mode, blobs)
}
