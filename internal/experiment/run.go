package experiment

import (
	"fmt"
	"time"

	"proxcensus/internal/ba"
	"proxcensus/internal/chaos"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/transport"
	"proxcensus/internal/validate"
)

// Trial outcomes. Every trial lands in exactly one bucket: the sweep
// never aborts on a bad trial, it classifies and moves on.
const (
	// OutcomeDecided: the run finished, survivors agreed, and the
	// decision matches the common honest input.
	OutcomeDecided = "decided"
	// OutcomeDegraded: the run finished but a guarantee slipped —
	// a survivor errored, survivors disagreed, or validity broke.
	// Detail says which.
	OutcomeDegraded = "degraded"
	// OutcomeTimedOut: the mandatory trial watchdog fired before the
	// run produced any result.
	OutcomeTimedOut = "timed-out"
)

// TrialResult is one JSONL artifact line: everything needed to read a
// degradation curve or replay the trial (spec name + seed + schedule).
type TrialResult struct {
	Experiment string `json:"experiment"`
	Family     string `json:"family"`
	// Trial is the grid index, Faults/Seed the grid coordinates.
	Trial  int   `json:"trial"`
	Faults int   `json:"faults"`
	Seed   int64 `json:"seed"`
	// Schedule is the concrete fault schedule in grammar form.
	Schedule string `json:"schedule"`
	Outcome  string `json:"outcome"`
	Detail   string `json:"detail,omitempty"`
	// Survivors is the non-faulty node count; Decided how many of them
	// produced an output (under partial degradation the two differ).
	Survivors int `json:"survivors"`
	Decided   int `json:"decided"`
	// Rounds is the protocol budget, RoundsDone how many barriers the
	// hub completed before the trial ended (partial progress survives
	// a timeout classification on later analysis of earlier trials).
	Rounds     int     `json:"rounds"`
	RoundsDone int     `json:"rounds_done"`
	WallMS     float64 `json:"wall_ms"`
	// TraceHash is the deterministic replay digest (empty on timeout).
	TraceHash string `json:"trace_hash,omitempty"`
	// Transport and Ingress carry the one-line hub and screening
	// summaries for post-mortems.
	Transport string `json:"transport,omitempty"`
	Ingress   string `json:"ingress,omitempty"`
}

// Runner executes a spec's trial grid sequentially and deterministically.
type Runner struct {
	Spec *Spec
	// Sink, when set, receives each TrialResult the moment it is
	// classified — cmd/proxlab streams JSONL through it so an
	// interrupted sweep still leaves a usable partial artifact. An
	// error stops the sweep: Run returns it.
	Sink func(TrialResult) error
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Run validates the spec, compiles the grid and executes every trial.
// The error covers grid compilation and the Sink: the first Sink error
// stops the sweep and is returned with the results the Sink accepted.
// Trial-level trouble is classified into the results, never returned.
func (r *Runner) Run() ([]TrialResult, error) {
	trials, err := r.Spec.Trials()
	if err != nil {
		return nil, err
	}
	out := make([]TrialResult, 0, len(trials))
	for _, tr := range trials {
		res := r.RunTrial(tr)
		if r.Logf != nil {
			r.Logf("trial %d/%d faults=%d seed=%d: %s (%.0fms)%s",
				tr.Index+1, len(trials), tr.Faults, tr.Seed, res.Outcome, res.WallMS, detailSuffix(res.Detail))
		}
		if r.Sink != nil {
			if err := r.Sink(res); err != nil {
				return out, fmt.Errorf("experiment: sink rejected trial %d: %w", tr.Index, err)
			}
		}
		out = append(out, res)
	}
	return out, nil
}

func detailSuffix(detail string) string {
	if detail == "" {
		return ""
	}
	return ": " + detail
}

// RunTrial executes one grid cell under the mandatory watchdog. It
// never blocks longer than the spec's trial timeout: a wedged run is
// abandoned to its own transport deadlines and classified timed-out.
func (r *Runner) RunTrial(tr Trial) TrialResult {
	s := r.Spec
	out := TrialResult{
		Experiment: s.Name,
		Family:     s.Family,
		Trial:      tr.Index,
		Faults:     tr.Faults,
		Seed:       tr.Seed,
		Schedule:   tr.Schedule.Spec(),
		Rounds:     s.ProtocolRounds(),
	}
	machines, cfg, err := r.build(tr)
	if err != nil {
		out.Outcome = OutcomeDegraded
		out.Detail = fmt.Sprintf("setup: %v", err)
		return out
	}
	start := time.Now() //lint:wallclock trial wall-clock measurement only, not protocol state
	type runOut struct {
		res *chaos.Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := chaos.Run(machines, tr.Schedule, cfg)
		done <- runOut{res, err}
	}()
	watchdog := time.NewTimer(s.TrialTimeout()) //lint:wallclock mandatory per-trial watchdog; bounds the sweep, not the protocol
	defer watchdog.Stop()
	select {
	case <-watchdog.C:
		// The run goroutine is abandoned; its sockets die under their
		// own transport deadlines. The artifact records the timeout so
		// analysis can count the trial against the decision rate.
		out.Outcome = OutcomeTimedOut
		out.Detail = fmt.Sprintf("no result within %s", s.TrialTimeout())
		out.WallMS = wallMS(start)
		return out
	case ro := <-done:
		out.WallMS = wallMS(start)
		r.classify(&out, ro.res, ro.err)
		return out
	}
}

func wallMS(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond) //lint:wallclock trial wall-clock measurement only, not protocol state
}

// classify fills the outcome fields from a finished run. Partial
// output is the norm under faults: whatever the run produced is
// recorded even when the outcome is degraded.
func (r *Runner) classify(out *TrialResult, res *chaos.Result, err error) {
	if res != nil {
		out.Survivors = len(res.Survivors())
		out.RoundsDone = len(res.Hub.RoundLatency)
		out.TraceHash = res.TraceHash()
		out.Transport = res.Hub.Summary()
		for _, id := range res.Survivors() {
			if res.Errs[id] == nil && res.Outputs[id] != nil {
				out.Decided++
			}
		}
		if v := res.Validation(); v.Admitted > 0 || v.TotalRejected() > 0 {
			out.Ingress = v.Summary()
		}
	}
	switch {
	case err != nil:
		out.Outcome = OutcomeDegraded
		out.Detail = fmt.Sprintf("run: %v", err)
	case res == nil:
		out.Outcome = OutcomeDegraded
		out.Detail = "run returned no result"
	default:
		if aerr := res.CheckAgreement(); aerr != nil {
			out.Outcome = OutcomeDegraded
			out.Detail = fmt.Sprintf("agreement: %v", aerr)
			return
		}
		if verr := r.checkValidity(res); verr != nil {
			out.Outcome = OutcomeDegraded
			out.Detail = fmt.Sprintf("validity: %v", verr)
			return
		}
		out.Outcome = OutcomeDecided
	}
}

// checkValidity demands every survivor decided the common honest
// input — with unanimous honest inputs, anything else is degradation.
func (r *Runner) checkValidity(res *chaos.Result) error {
	want := r.Spec.InputValue()
	for _, id := range res.Survivors() {
		var got int
		switch v := res.Outputs[id].(type) {
		case proxcensus.Result:
			got = v.Value
		case proxcensus.Value: // covers ba.Value (alias)
			got = v
		default:
			return fmt.Errorf("node %d: unexpected output type %T", id, res.Outputs[id])
		}
		if got != want {
			return fmt.Errorf("node %d decided %d, want common input %d", id, got, want)
		}
	}
	return nil
}

// build compiles the trial's machines, ingress screen and transport
// config. BA setups are seeded per trial, so the whole trial — dealer
// randomness included — replays from (spec, seed).
func (r *Runner) build(tr Trial) ([]sim.Machine, transport.Config, error) {
	s := r.Spec
	rt := s.RoundTimeout()
	cfg := transport.Config{
		RoundTimeout: rt,
		JoinTimeout:  4 * rt,
	}
	switch s.Family {
	case FamilyExpand:
		machines := make([]sim.Machine, s.N)
		for i := range machines {
			machines[i] = proxcensus.NewExpandMachine(s.N, s.T, s.Rounds, s.InputValue())
		}
		n, rounds := s.N, s.Rounds
		cfg.NewIngress = func(int) *validate.Validator {
			return validate.New(validate.ForExpand(n, rounds, 1))
		}
		return machines, cfg, nil
	case FamilyOneShot, FamilyHalf:
		setup, err := ba.NewSetup(s.N, s.T, ba.CoinThreshold, tr.Seed)
		if err != nil {
			return nil, cfg, err
		}
		inputs := make([]ba.Value, s.N)
		for i := range inputs {
			inputs[i] = s.InputValue()
		}
		var p *ba.Protocol
		if s.Family == FamilyOneShot {
			p, err = ba.NewOneShot(setup, s.Kappa, inputs)
		} else {
			p, err = ba.NewHalf(setup, s.Kappa, inputs)
		}
		if err != nil {
			return nil, cfg, err
		}
		rules := validate.ForHalf(s.N)
		if s.Family == FamilyOneShot {
			rules = validate.ForOneShot(s.N, s.Kappa, 1, setup.Mode)
		}
		cfg.NewIngress = func(int) *validate.Validator { return validate.New(rules) }
		return p.Machines, cfg, nil
	default:
		return nil, cfg, fmt.Errorf("experiment: unknown family %q", s.Family)
	}
}
