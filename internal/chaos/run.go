package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"

	"proxcensus/internal/sim"
	"proxcensus/internal/transport"
	"proxcensus/internal/validate"
)

// A Schedule plugs straight into the transport as its fault injector.
var _ transport.FaultInjector = Schedule{}

// ErrByzantine marks a node the schedule ran as a Byzantine attacker:
// it holds its authenticated slot but produces no protocol output by
// design. Survivors and CheckAgreement treat it like any other faulty
// node.
var ErrByzantine = errors.New("chaos: node ran byzantine by schedule")

// Result collects one chaos execution: the schedule that ran, and the
// transport's per-node outcomes and structured reports. In Errs,
// scheduled crashes surface as transport.ErrCrashed and Byzantine nodes
// as ErrByzantine; their Nodes slots hold a zero Report, since
// attackers do not narrate themselves.
type Result struct {
	transport.RunResult
	// Schedule is the fault schedule that was injected.
	Schedule Schedule
}

// Run executes the machines over TCP with the schedule injected:
// benign faults through the transport's injector, Byzantine nodes as
// standalone wire-level attackers claiming their own hub slots. The
// machine count must match the schedule's N — machines at Byzantine
// indices are ignored, their slots are played by the scheduled role
// instead. The returned error covers setup and hub failures only —
// per-node outcomes land in the Result.
func Run(machines []sim.Machine, s Schedule, cfg transport.Config) (*Result, error) {
	if len(machines) != s.N {
		return nil, fmt.Errorf("chaos: %d machines for schedule with n=%d", len(machines), s.N)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg.Faults = s
	byz := make(map[int]func(addr string) error)
	for _, id := range s.ByzNodes() {
		role, _ := s.ByzRole(id)
		byz[id] = func(addr string) error {
			// Infrastructure trouble inside the attacker is worth
			// surfacing, but its terminal status stays ErrByzantine so
			// trace hashes only depend on the schedule.
			if err := runByzantine(addr, id, role, s, cfg); err != nil {
				return fmt.Errorf("%w: role %s: %v", ErrByzantine, role, err)
			}
			return fmt.Errorf("%w: role %s", ErrByzantine, role)
		}
	}
	run, err := transport.RunLocal(machines, s.Rounds, cfg, byz)
	if run == nil {
		return nil, err
	}
	return &Result{RunResult: *run, Schedule: s}, err
}

// Survivors returns the non-faulty nodes — everyone the schedule
// neither crashed, partitioned nor corrupted — sorted ascending. These
// are the parties protocol guarantees must hold for.
func (r *Result) Survivors() []int {
	faulty := make([]bool, r.Schedule.N)
	for _, id := range r.Schedule.FaultyNodes() {
		faulty[id] = true
	}
	var out []int
	for id, f := range faulty {
		if !f {
			out = append(out, id)
		}
	}
	return out
}

// CheckAgreement verifies that every survivor finished without error
// and that all survivors produced identical outputs (compared by their
// printed form, like the simulator's consistency checks).
func (r *Result) CheckAgreement() error {
	surv := r.Survivors()
	if len(surv) == 0 {
		return errors.New("chaos: no survivors to agree")
	}
	ref, refID := "", -1
	for _, id := range surv {
		if r.Errs[id] != nil {
			return fmt.Errorf("chaos: survivor %d failed: %w", id, r.Errs[id])
		}
		got := fmt.Sprint(r.Outputs[id])
		if refID < 0 {
			ref, refID = got, id
			continue
		}
		if got != ref {
			return fmt.Errorf("chaos: survivor %d output %q disagrees with survivor %d output %q", id, got, refID, ref)
		}
	}
	return nil
}

// Validation merges every honest node's ingress-screening report.
// Every honest node screens: with Config.NewIngress unset, through
// validate.General.
func (r *Result) Validation() validate.Report {
	if v := transport.MergeReports(r.Nodes...).Validation; v != nil {
		return *v
	}
	return validate.Report{}
}

// TraceHash digests the deterministic portion of the execution: the
// schedule fingerprint plus each node's terminal status (its printed
// output, "crashed" for scheduled crashes, "byzantine" for scheduled
// attackers, "failed" otherwise). Wall-clock latencies and retry
// counts are deliberately excluded, so replaying a seed must reproduce
// the hash exactly.
func (r *Result) TraceHash() string {
	h := sha256.New()
	fmt.Fprintln(h, r.Schedule.Fingerprint())
	for id := range r.Outputs {
		status := "ok:" + fmt.Sprint(r.Outputs[id])
		switch {
		case errors.Is(r.Errs[id], ErrByzantine):
			status = "byzantine"
		case errors.Is(r.Errs[id], transport.ErrCrashed):
			status = "crashed"
		case r.Errs[id] != nil:
			status = "failed"
		}
		fmt.Fprintf(h, "node %d %s\n", id, status)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WriteLog writes a replay header (spec, fingerprint, trace hash),
// per-node outcomes, and the full hub and node event logs.
func (r *Result) WriteLog(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule: n=%d t=%d rounds=%d spec=%q\n", r.Schedule.N, r.Schedule.T, r.Schedule.Rounds, r.Schedule.Spec())
	fmt.Fprintf(&b, "fingerprint: %s\n", r.Schedule.Fingerprint())
	fmt.Fprintf(&b, "trace-hash: %s\n", r.TraceHash())
	fmt.Fprintf(&b, "faulty: %v survivors: %v\n", r.Schedule.FaultyNodes(), r.Survivors())
	if v := r.Validation(); v.Admitted > 0 || v.TotalRejected() > 0 {
		fmt.Fprintf(&b, "ingress: %s\n", v.Summary())
	}
	for id := range r.Outputs {
		switch {
		case errors.Is(r.Errs[id], ErrByzantine):
			role, _ := r.Schedule.ByzRole(id)
			fmt.Fprintf(&b, "node %d: byzantine by schedule (role %s)\n", id, role)
		case errors.Is(r.Errs[id], transport.ErrCrashed):
			fmt.Fprintf(&b, "node %d: crashed by schedule\n", id)
		case r.Errs[id] != nil:
			fmt.Fprintf(&b, "node %d: error: %v\n", id, r.Errs[id])
		default:
			fmt.Fprintf(&b, "node %d: output %v\n", id, r.Outputs[id])
		}
	}
	b.WriteString("--- hub events ---\n")
	if err := r.Hub.WriteLog(&b); err != nil {
		return err
	}
	for id, rep := range r.Nodes {
		fmt.Fprintf(&b, "--- node %d events ---\n", id)
		if err := rep.WriteLog(&b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
