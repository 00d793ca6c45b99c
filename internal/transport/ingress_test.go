package transport

import (
	"testing"
	"time"

	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/validate"
	"proxcensus/internal/wire"
)

// TestIngressValidationTransparent runs a clean execution with the
// ingress validator on: every payload is admitted, nothing is
// rejected, and the protocol output is unchanged.
func TestIngressValidationTransparent(t *testing.T) {
	const n, tc, rounds = 4, 1, 3
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, 1)
	}
	cfg := quickConfig()
	cfg.NewIngress = func(int) *validate.Validator {
		return validate.New(validate.ForExpand(n, rounds, 1))
	}
	res, err := RunLocal(machines, rounds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := proxcensus.Result{Value: 1, Grade: proxcensus.MaxGrade(proxcensus.ExpandSlots(rounds))}
	for i := range machines {
		if res.Errs[i] != nil {
			t.Fatalf("node %d: %v", i, res.Errs[i])
		}
		if res.Outputs[i].(proxcensus.Result) != want {
			t.Errorf("node %d: %v, want %v", i, res.Outputs[i], want)
		}
		v := res.Nodes[i].Validation
		if v == nil {
			t.Fatalf("node %d: no validation report", i)
		}
		if v.TotalRejected() != 0 {
			t.Errorf("node %d: honest traffic rejected: %s", i, v.Summary())
		}
		// Each round delivers n echoes (broadcast includes self).
		if v.Admitted != n*rounds {
			t.Errorf("node %d: admitted %d, want %d", i, v.Admitted, n*rounds)
		}
	}
}

// floodRun drives a hub with n-1 honest expand nodes and one raw
// client flooding `entries` copies of one echo every round.
func floodRun(t *testing.T, cfg Config, n, rounds, entries int) *RunResult {
	t.Helper()
	flood := func(addr string) error {
		flooder, err := DialRaw(addr, n-1, 0, cfg)
		if err != nil {
			return err
		}
		defer func() { _ = flooder.Close() }()
		payload, err := wire.Encode(proxcensus.EchoPayload{Z: 1, H: 0})
		if err != nil {
			return err
		}
		batch := make([]wire.BatchMsg, entries)
		for j := range batch {
			batch[j] = wire.BatchMsg{Addr: sim.Broadcast, Payload: payload}
		}
		for round := 1; round <= rounds; round++ {
			if err := flooder.SendBatch(round, batch); err != nil {
				return err
			}
			if _, _, err := flooder.Recv(); err != nil {
				return err
			}
		}
		return nil
	}
	res, err := RunLocal(expandMachines(n, 1, rounds, 1), rounds, cfg, map[int]func(string) error{n - 1: flood})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHubFloodControl asserts a flooding peer cannot blow up survivor
// memory or round latency: the hub truncates its batches at
// DefaultFloodLimit and logs EventFlood, the survivors still agree, and
// the ingress layer collapses what leaks through to a single logical
// message.
func TestHubFloodControl(t *testing.T) {
	const n, rounds, entries = 4, 3, 5000
	cfg := quickConfig()
	cfg.NewIngress = func(int) *validate.Validator {
		return validate.New(validate.ForExpand(n, rounds, 1))
	}
	start := time.Now()
	res := floodRun(t, cfg, n, rounds, entries)
	elapsed := time.Since(start)

	if res.Errs[n-1] != nil {
		t.Fatalf("flooder infrastructure failed: %v", res.Errs[n-1])
	}
	// Flood cap: one EventFlood per flooded round, each reporting the
	// truncated surplus.
	if got := res.Hub.Count(EventFlood); got != rounds {
		t.Errorf("flood events = %d, want %d", got, rounds)
	}
	// Survivors: every honest node finishes and agrees on the unanimous
	// input despite the flood.
	results := make([]proxcensus.Result, 0, n-1)
	for i := 0; i < n-1; i++ {
		if res.Errs[i] != nil {
			t.Fatalf("honest node %d failed under flood: %v", i, res.Errs[i])
		}
		results = append(results, res.Outputs[i].(proxcensus.Result))
		if results[i].Value != 1 {
			t.Errorf("node %d flipped to %d under flood", i, results[i].Value)
		}
		// Ingress duplicate collapse: of the <= DefaultFloodLimit copies the
		// hub lets through per round, the machine sees exactly one.
		v := res.Nodes[i].Validation
		if v == nil {
			t.Fatalf("node %d: no validation report", i)
		}
		if v.Rejections(validate.RejectDuplicate) < (DefaultFloodLimit-1)*rounds {
			t.Errorf("node %d: duplicate rejections = %d, want >= %d (%s)",
				i, v.Rejections(validate.RejectDuplicate), (DefaultFloodLimit-1)*rounds, v.Summary())
		}
	}
	if err := proxcensus.CheckConsistency(proxcensus.ExpandSlots(rounds), results); err != nil {
		t.Errorf("consistency under flood: %v", err)
	}
	// Latency: the flood must not consume round deadlines. The whole
	// 3-round run gets a budget far below rounds x RoundTimeout.
	if budget := time.Duration(rounds) * cfg.RoundTimeout; elapsed > budget {
		t.Errorf("flooded run took %s, budget %s", elapsed, budget)
	}
}
