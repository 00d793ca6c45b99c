// Package conformance turns the paper's guarantees into one reusable
// checking engine. It has three layers:
//
//   - Property oracles: pure predicates over a completed execution's
//     normalized Run record — Proxcensus adjacency and pre-agreement
//     forcing (Definition 2 / Lemma 2), graded validity of the expand
//     step (Section 3.3), and BA agreement, validity and termination.
//     Oracles compose with any execution source: the deterministic
//     simulator, the chaos harness, or a TCP transport run, as long as
//     the caller fills in a Run.
//
//   - A strategy-search engine (strategy.go, explorer.go): exhaustive
//     palette enumeration for small (n, t, rounds) configurations and
//     seeded guided-random search (palette mutation plus corruption-
//     timing search) for larger ones. Every violating execution is
//     identified by a compact StrategyID string that replays it
//     deterministically.
//
//   - A statistical bound checker (bound.go): runs Prox_s-plus-coin
//     iterations over many seeds and tests the observed per-iteration
//     disagreement rate against the paper's 1/(s-1) bound (Theorem 1,
//     Corollary 2) with a one-sided exact binomial test.
package conformance

import (
	"errors"
	"fmt"

	"proxcensus/internal/ba"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// Run is the normalized record of one completed execution that the
// oracles judge. Exactly one of Results (Proxcensus runs) and Decisions
// (BA runs) is populated; both are in ascending honest-party-ID order,
// aligned with Honest.
type Run struct {
	// N, T frame the execution.
	N, T int
	// Slots is the Proxcensus slot count s (used by the Proxcensus
	// oracles; 0 for plain BA runs, where it is ignored).
	Slots int
	// Inputs holds every party's input, indexed by party ID. Corrupted
	// parties' entries are what they were handed before corruption.
	Inputs []int
	// Honest lists the honest party IDs, ascending.
	Honest []sim.PartyID
	// Results holds the honest Proxcensus outputs (nil for BA runs).
	Results []proxcensus.Result
	// Decisions holds the honest BA decisions (nil for Proxcensus runs).
	Decisions []int
	// Err records an execution-level failure — e.g. an honest machine
	// with no output after the final round. The Termination oracle turns
	// it into a violation.
	Err error
}

// HonestInputs returns the honest parties' inputs in Honest order.
func (r *Run) HonestInputs() []int {
	out := make([]int, 0, len(r.Honest))
	for _, p := range r.Honest {
		out = append(out, r.Inputs[p])
	}
	return out
}

// PreAgreed reports the unanimous honest input, if there is one.
func (r *Run) PreAgreed() (int, bool) {
	hin := r.HonestInputs()
	if len(hin) == 0 {
		return 0, false
	}
	for _, v := range hin[1:] {
		if v != hin[0] {
			return 0, false
		}
	}
	return hin[0], true
}

// hasInput reports whether some honest party input v.
func (r *Run) hasInput(v int) bool {
	for _, p := range r.Honest {
		if r.Inputs[p] == v {
			return true
		}
	}
	return false
}

// Oracle is one checkable paper property. Check returns nil when the
// property holds OR does not apply to the run's kind (a BA oracle on a
// Proxcensus run and vice versa); it returns a descriptive error when
// the property is violated.
type Oracle interface {
	// Name identifies the property in violation reports.
	Name() string
	// Check judges one completed run.
	Check(r *Run) error
}

// Adjacency checks Definition 2's consistency picture over Proxcensus
// outputs: grades in range and differing by at most one, equal values
// under qualifying grades, and — for the binary domain — all honest
// outputs inside two adjacent slots of the s-slot line (Fig. 1).
type Adjacency struct{}

// Name implements Oracle.
func (Adjacency) Name() string { return "adjacency" }

// Check implements Oracle.
func (Adjacency) Check(r *Run) error {
	if r.Results == nil {
		return nil
	}
	if err := proxcensus.CheckConsistency(r.Slots, r.Results); err != nil {
		return err
	}
	for _, res := range r.Results {
		if res.Value != 0 && res.Value != 1 {
			return nil // slot picture is defined for the binary domain only
		}
	}
	return proxcensus.CheckAdjacent(r.Slots, r.Results)
}

// PreAgreementForcing checks Definition 2's validity: a unanimous
// honest input x forces every honest output to (x, MaxGrade(s)).
type PreAgreementForcing struct{}

// Name implements Oracle.
func (PreAgreementForcing) Name() string { return "pre-agreement-forcing" }

// Check implements Oracle.
func (PreAgreementForcing) Check(r *Run) error {
	if r.Results == nil {
		return nil
	}
	x, ok := r.PreAgreed()
	if !ok {
		return nil
	}
	return proxcensus.CheckValidity(r.Slots, x, r.Results)
}

// GradedValidity checks the expand step's graded-validity property
// (Section 3.3): a positive grade certifies honest support, so an
// honest output (v, g) with g >= 1 is only legal when some honest party
// actually input v. (A value with grade >= 1 gathered n-2t echoes, at
// least t+1 of them honest.)
type GradedValidity struct{}

// Name implements Oracle.
func (GradedValidity) Name() string { return "graded-validity" }

// Check implements Oracle.
func (GradedValidity) Check(r *Run) error {
	if r.Results == nil {
		return nil
	}
	for i, res := range r.Results {
		if res.Grade >= 1 && !r.hasInput(res.Value) {
			return fmt.Errorf("conformance: party %d output %v but no honest party input %d",
				r.Honest[i], res, res.Value)
		}
	}
	return nil
}

// BAAgreement checks that all honest BA decisions are equal.
type BAAgreement struct{}

// Name implements Oracle.
func (BAAgreement) Name() string { return "ba-agreement" }

// Check implements Oracle.
func (BAAgreement) Check(r *Run) error {
	if r.Decisions == nil {
		return nil
	}
	return ba.CheckAgreement(r.Decisions)
}

// BAValidity checks BA validity: a unanimous honest input is the only
// legal decision.
type BAValidity struct{}

// Name implements Oracle.
func (BAValidity) Name() string { return "ba-validity" }

// Check implements Oracle.
func (BAValidity) Check(r *Run) error {
	if r.Decisions == nil {
		return nil
	}
	x, ok := r.PreAgreed()
	if !ok {
		return nil
	}
	return ba.CheckValidity(x, r.Decisions)
}

// ErrNoTermination is wrapped by Termination violations.
var ErrNoTermination = errors.New("conformance: termination violated")

// Termination checks that the execution completed and every honest
// party produced an output within the round budget.
type Termination struct{}

// Name implements Oracle.
func (Termination) Name() string { return "termination" }

// Check implements Oracle.
func (Termination) Check(r *Run) error {
	if r.Err != nil {
		return fmt.Errorf("%w: %v", ErrNoTermination, r.Err)
	}
	outputs := len(r.Results) + len(r.Decisions)
	if outputs != len(r.Honest) {
		return fmt.Errorf("%w: %d outputs for %d honest parties", ErrNoTermination, outputs, len(r.Honest))
	}
	return nil
}

// ProxOracles returns the oracle suite for Proxcensus executions.
func ProxOracles() []Oracle {
	return []Oracle{Adjacency{}, PreAgreementForcing{}, GradedValidity{}, Termination{}}
}

// BAOracles returns the oracle suite for BA executions.
func BAOracles() []Oracle {
	return []Oracle{BAAgreement{}, BAValidity{}, Termination{}}
}
