package chaos_test

import (
	"fmt"
	"testing"

	"proxcensus/internal/ba"
	"proxcensus/internal/chaos"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/transport"
	"proxcensus/internal/validate"
)

// expandMachines builds n expand machines with unanimous input 1.
func expandMachines(n, tc, rounds int) []sim.Machine {
	machines := make([]sim.Machine, n)
	for i := range machines {
		machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, 1)
	}
	return machines
}

// expandIngressCfg is quickCfg with every honest node screening its
// ingress against the expand rule set instead of the general one.
func expandIngressCfg(n, rounds int) transport.Config {
	cfg := quickCfg()
	cfg.NewIngress = func(int) *validate.Validator {
		return validate.New(validate.ForExpand(n, rounds, 1))
	}
	return cfg
}

// mustParse parses a spec or fails the test.
func mustParse(t *testing.T, spec string, n, tc, rounds int) chaos.Schedule {
	t.Helper()
	s, err := chaos.Parse(spec, n, tc, rounds)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return s
}

// runExpandByz runs an expand execution under the spec and asserts the
// baseline robustness properties: survivors agree on the unanimous
// input with consistent grades.
func runExpandByz(t *testing.T, spec string, n, tc, rounds int) *chaos.Result {
	t.Helper()
	s := mustParse(t, spec, n, tc, rounds)
	res, err := chaos.Run(expandMachines(n, tc, rounds), s, expandIngressCfg(n, rounds))
	if err != nil {
		t.Fatalf("spec %q: %v", spec, err)
	}
	if t.Failed() {
		return res
	}
	if err := res.CheckAgreement(); err != nil {
		t.Fatalf("spec %q: %v", spec, err)
	}
	results := make([]proxcensus.Result, 0, n)
	for _, id := range res.Survivors() {
		r := res.Outputs[id].(proxcensus.Result)
		if r.Value != 1 {
			t.Errorf("spec %q: survivor %d value %d, want 1", spec, id, r.Value)
		}
		results = append(results, r)
	}
	if err := proxcensus.CheckConsistency(proxcensus.ExpandSlots(rounds), results); err != nil {
		t.Errorf("spec %q: %v", spec, err)
	}
	return res
}

// TestByzRejectionClasses runs each Byzantine role against screened
// honest nodes and asserts the ingress report attributes the attack to
// the right rejection class while the survivors stay correct.
func TestByzRejectionClasses(t *testing.T) {
	const n, tc, rounds = 4, 1, 3
	cases := []struct {
		role  chaos.Role
		check func(t *testing.T, res *chaos.Result)
	}{
		{chaos.RoleEquivocate, func(t *testing.T, res *chaos.Result) {
			v := res.Validation()
			if v.Rejections(validate.RejectEquivocation) == 0 {
				t.Errorf("no equivocation rejections: %s", v.Summary())
			}
			if len(v.Evidence) == 0 {
				t.Error("no equivocation evidence recorded")
			}
			for _, e := range v.Evidence {
				if e.From != n-1 {
					t.Errorf("evidence blames node %d, want %d: %s", e.From, n-1, e)
				}
			}
		}},
		{chaos.RoleGarbage, func(t *testing.T, res *chaos.Result) {
			v := res.Validation()
			if v.Rejections(validate.RejectMalformed) == 0 {
				t.Errorf("no malformed rejections: %s", v.Summary())
			}
			if v.Rejections(validate.RejectDomain) == 0 {
				t.Errorf("no domain rejections: %s", v.Summary())
			}
		}},
		{chaos.RoleDupFlood, func(t *testing.T, res *chaos.Result) {
			if got := res.Hub.Count(transport.EventFlood); got == 0 {
				t.Error("dupflood never tripped the hub flood cap")
			}
			v := res.Validation()
			// Per honest node and round the hub forwards at most
			// DefaultFloodLimit copies; all but the first collapse at ingress.
			if v.Rejections(validate.RejectDuplicate) < (n-1)*rounds {
				t.Errorf("duplicate rejections = %d, want >= %d: %s",
					v.Rejections(validate.RejectDuplicate), (n-1)*rounds, v.Summary())
			}
		}},
		{chaos.RoleMalformed, func(t *testing.T, res *chaos.Result) {
			v := res.Validation()
			if v.Rejections(validate.RejectMalformed) == 0 {
				t.Errorf("no malformed rejections: %s", v.Summary())
			}
		}},
		{chaos.RoleWrongRound, func(t *testing.T, res *chaos.Result) {
			if got := res.Hub.Count(transport.EventStale); got == 0 {
				t.Error("wrong-round frames never logged as stale")
			}
		}},
		{chaos.RoleReplay, func(t *testing.T, res *chaos.Result) {
			// Replayed honest bytes arrive re-attributed to the attacker;
			// survivor correctness is the property, asserted by runExpandByz.
		}},
		{chaos.RoleStraddle, func(t *testing.T, res *chaos.Result) {
			// Straddle payloads are domain-valid and per-receiver
			// consistent, so the screen stays silent; slot adjacency is the
			// property, asserted by runExpandByz.
		}},
	}
	for _, tc2 := range cases {
		tc2 := tc2
		t.Run(string(tc2.role), func(t *testing.T) {
			t.Parallel()
			res := runExpandByz(t, fmt.Sprintf("byz:%d@%s", n-1, tc2.role), n, tc, rounds)
			defer func() {
				if t.Failed() {
					dumpLog(t, "byz-"+string(tc2.role), res)
				}
			}()
			tc2.check(t, res)
		})
	}
}

// TestByzDupHeavySchedule drives a duplicate-saturated schedule — a
// flooding Byzantine node plus an honest node retransmitting frames —
// and asserts the collapse math: every honest node sees at most one
// logical copy and still terminates correctly.
func TestByzDupHeavySchedule(t *testing.T) {
	const n, tc, rounds = 4, 1, 3
	res := runExpandByz(t, fmt.Sprintf("byz:%d@dupflood;dup:1@2;dup:2@1", n-1), n, tc, rounds)
	if t.Failed() {
		dumpLog(t, "byz-dupheavy", res)
		return
	}
	v := res.Validation()
	// The hub forwards at most DefaultFloodLimit copies per flooded
	// round; each honest node admits one and rejects the rest, every
	// round.
	min := (n - 1) * rounds * (transport.DefaultFloodLimit - 1)
	if got := v.Rejections(validate.RejectDuplicate); got < min {
		t.Errorf("duplicate rejections = %d, want >= %d: %s", got, min, v.Summary())
	}
	if v.Admitted == 0 {
		t.Error("honest traffic was not admitted")
	}
}

// TestByzMixedSchedules combines Byzantine roles with crashes,
// partitions and benign faults under one corruption budget, across all
// three protocol families, with protocol-aware ingress rules. Survivor
// agreement and validity must hold and the attacks must show up in the
// merged ingress report.
func TestByzMixedSchedules(t *testing.T) {
	t.Run("expand", func(t *testing.T) {
		t.Parallel()
		const n, tc, rounds = 7, 2, 4
		res := runExpandByz(t, "byz:6@equivocate;crash:5@2;drop:1@2;delay:0@1+10ms", n, tc, rounds)
		if t.Failed() {
			dumpLog(t, "byz-mixed-expand", res)
			return
		}
		if v := res.Validation(); v.Rejections(validate.RejectEquivocation) == 0 {
			t.Errorf("mixed schedule produced no equivocation rejections: %s", v.Summary())
		}
	})
	t.Run("oneshot", func(t *testing.T) {
		t.Parallel()
		const n, tc, kappa = 7, 2, 2
		setup, err := ba.NewSetup(n, tc, ba.CoinThreshold, 7)
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]ba.Value, n)
		for i := range inputs {
			inputs[i] = 1
		}
		p, err := ba.NewOneShot(setup, kappa, inputs)
		if err != nil {
			t.Fatal(err)
		}
		s := mustParse(t, "byz:6@garbage;part:5@1-2;dup:2@1", n, tc, p.Rounds)
		cfg := quickCfg()
		cfg.NewIngress = func(int) *validate.Validator {
			return validate.New(validate.ForOneShot(n, kappa, 1, setup.Mode))
		}
		res, err := chaos.Run(p.Machines, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if t.Failed() {
				dumpLog(t, "byz-mixed-oneshot", res)
			}
		}()
		if err := res.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
		for _, id := range res.Survivors() {
			if v := res.Outputs[id].(ba.Value); v != 1 {
				t.Errorf("survivor %d decided %d, want 1 (validity)", id, v)
			}
		}
		if v := res.Validation(); v.TotalRejected() == 0 {
			t.Errorf("garbage attacker produced no rejections: %s", v.Summary())
		}
	})
	t.Run("half", func(t *testing.T) {
		t.Parallel()
		const n, tc, kappa = 5, 2, 2
		setup, err := ba.NewSetup(n, tc, ba.CoinThreshold, 11)
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]ba.Value, n)
		for i := range inputs {
			inputs[i] = 1
		}
		p, err := ba.NewHalf(setup, kappa, inputs)
		if err != nil {
			t.Fatal(err)
		}
		s := mustParse(t, "byz:4@equivocate;crash:3@2;drop:1@1", n, tc, p.Rounds)
		cfg := quickCfg()
		cfg.NewIngress = func(int) *validate.Validator {
			return validate.New(validate.ForHalf(n))
		}
		res, err := chaos.Run(p.Machines, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if t.Failed() {
				dumpLog(t, "byz-mixed-half", res)
			}
		}()
		if err := res.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
		for _, id := range res.Survivors() {
			if v := res.Outputs[id].(ba.Value); v != 1 {
				t.Errorf("survivor %d decided %d, want 1 (validity)", id, v)
			}
		}
		// The vote pairs land in a LinearVote phase: equivocation evidence
		// must survive into the merged report.
		if v := res.Validation(); v.Rejections(validate.RejectEquivocation) == 0 {
			t.Errorf("equivocator produced no equivocation rejections: %s", v.Summary())
		}
	})
}

// TestByzReplayDeterminism re-runs a Byzantine-heavy schedule and a
// generated byz-containing schedule: the spec and the full trace hash
// must reproduce exactly, or chaos failures cannot be replayed.
func TestByzReplayDeterminism(t *testing.T) {
	t.Run("parsed", func(t *testing.T) {
		t.Parallel()
		const n, tc, rounds = 7, 2, 3
		spec := "byz:5@garbage;byz:6@equivocate;drop:1@2"
		hashes := make([]string, 2)
		for run := range hashes {
			res := runExpandByz(t, spec, n, tc, rounds)
			if t.Failed() {
				dumpLog(t, fmt.Sprintf("byz-replay-run%d", run), res)
				return
			}
			hashes[run] = res.TraceHash()
		}
		if hashes[0] != hashes[1] {
			t.Errorf("trace hashes diverge across replays: %s vs %s", hashes[0], hashes[1])
		}
	})
	t.Run("generated", func(t *testing.T) {
		t.Parallel()
		const n, tc, rounds = 5, 2, 3
		// Scan seeds for a schedule that actually contains a Byzantine
		// node; Generate draws roles with probability 1/3 per victim.
		var seed int64
		for seed = 1; seed < 100; seed++ {
			if len(chaos.Generate(n, tc, rounds, seed).ByzNodes()) > 0 {
				break
			}
		}
		s := chaos.Generate(n, tc, rounds, seed)
		if len(s.ByzNodes()) == 0 {
			t.Fatal("no seed in 1..99 generated a byzantine schedule")
		}
		hashes := make([]string, 2)
		for run := range hashes {
			s2 := chaos.Generate(n, tc, rounds, seed)
			if s2.Spec() != s.Spec() {
				t.Fatalf("seed %d: spec diverged: %q vs %q", seed, s2.Spec(), s.Spec())
			}
			res, err := chaos.Run(expandMachines(n, tc, rounds), s2, expandIngressCfg(n, rounds))
			if err != nil {
				t.Fatalf("spec %q: %v", s2.Spec(), err)
			}
			if err := res.CheckAgreement(); err != nil {
				t.Fatalf("spec %q: %v", s2.Spec(), err)
			}
			hashes[run] = res.TraceHash()
		}
		if hashes[0] != hashes[1] {
			t.Errorf("trace hashes diverge across replays: %s vs %s", hashes[0], hashes[1])
		}
	})
}

// TestByzScheduleValidation pins the grammar and budget rules for
// Byzantine faults.
func TestByzScheduleValidation(t *testing.T) {
	good := "byz:3@equivocate;crash:2@1"
	s := mustParse(t, good, 5, 2, 3)
	if s.Spec() != "crash:2@1;byz:3@equivocate" {
		t.Errorf("Spec() = %q", s.Spec())
	}
	if role, ok := s.ByzRole(3); !ok || role != chaos.RoleEquivocate {
		t.Errorf("ByzRole(3) = %q, %v", role, ok)
	}
	if got := fmt.Sprint(s.FaultyNodes()); got != "[2 3]" {
		t.Errorf("FaultyNodes() = %s, want [2 3]", got)
	}
	bad := map[string]string{
		"unknown role":   "byz:1@sneaky",
		"node range":     "byz:9@garbage",
		"duplicate role": "byz:1@garbage;byz:1@replay",
		"byz plus crash": "byz:1@garbage;crash:1@2",
		"over budget":    "byz:0@garbage;byz:1@replay;crash:2@1",
		"missing role":   "byz:1",
		"non-numeric":    "byz:x@garbage",
	}
	for name, spec := range bad { //lint:ordered assertions are independent per case
		if _, err := chaos.Parse(spec, 5, 2, 3); err == nil {
			t.Errorf("%s: Parse(%q) succeeded, want error", name, spec)
		}
	}
}
