package transport

import (
	"errors"
	"testing"
	"time"

	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// testInjector is a table-driven FaultInjector for targeted tests.
type testInjector struct {
	crash map[int]int     // node -> round
	drop  map[[2]int]bool // {node, round}
	delay map[[2]int]time.Duration
	dup   map[[2]int]bool
	part  func(from, to, round int) bool
	churn map[int][2]int // node -> {down, up}
}

func (f *testInjector) Churn(id int) (down, up int) { return f.churn[id][0], f.churn[id][1] }

func (f *testInjector) CrashRound(id int) int { return f.crash[id] }
func (f *testInjector) DropConn(id, round int) bool {
	return f.drop[[2]int{id, round}]
}
func (f *testInjector) Delay(id, round int) time.Duration {
	return f.delay[[2]int{id, round}]
}
func (f *testInjector) Duplicate(id, round int) bool {
	return f.dup[[2]int{id, round}]
}
func (f *testInjector) Partitioned(from, to, round int) bool {
	if f.part == nil {
		return false
	}
	return f.part(from, to, round)
}

// expandMachines builds n honest expansion machines on a common input.
func expandMachines(n, t, rounds, input int) []sim.Machine {
	ms := make([]sim.Machine, n)
	for i := range ms {
		ms[i] = proxcensus.NewExpandMachine(n, t, rounds, input)
	}
	return ms
}

func TestReconnectAfterInjectedDrop(t *testing.T) {
	// Node 1 drops its connection at the start of round 2 and
	// reconnects; nothing may be lost and nobody dies.
	const n, tc, rounds = 4, 1, 3
	cfg := quickConfig()
	cfg.Faults = &testInjector{drop: map[[2]int]bool{{1, 2}: true}}
	res, err := RunLocal(expandMachines(n, tc, rounds, 1), rounds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := proxcensus.Result{Value: 1, Grade: proxcensus.MaxGrade(proxcensus.ExpandSlots(rounds))}
	for i := 0; i < n; i++ {
		if res.Errs[i] != nil {
			t.Fatalf("node %d: %v", i, res.Errs[i])
		}
		if res.Outputs[i].(proxcensus.Result) != want {
			t.Errorf("node %d: %v, want %v", i, res.Outputs[i], want)
		}
	}
	if res.Hub.Deaths() != 0 {
		t.Errorf("deaths = %d, want 0\nlog: %v", res.Hub.Deaths(), res.Hub.Events)
	}
	if res.Hub.Count(EventReconnect) == 0 {
		t.Error("expected a reconnect event at the hub")
	}
	if res.Nodes[1].Count(EventReconnect) == 0 {
		t.Error("expected a reconnect event at node 1")
	}
}

func TestDelayAndDuplicateTolerated(t *testing.T) {
	// Node 0 delays its round-1 send well under the deadline; node 2
	// duplicates its round-2 frame. Both are absorbed without loss.
	const n, tc, rounds = 4, 1, 3
	cfg := quickConfig()
	cfg.Faults = &testInjector{
		delay: map[[2]int]time.Duration{{0, 1}: 50 * time.Millisecond},
		dup:   map[[2]int]bool{{2, 2}: true},
	}
	res, err := RunLocal(expandMachines(n, tc, rounds, 1), rounds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := proxcensus.Result{Value: 1, Grade: proxcensus.MaxGrade(proxcensus.ExpandSlots(rounds))}
	for i := 0; i < n; i++ {
		if res.Errs[i] != nil {
			t.Fatalf("node %d: %v", i, res.Errs[i])
		}
		if res.Outputs[i].(proxcensus.Result) != want {
			t.Errorf("node %d: %v, want %v", i, res.Outputs[i], want)
		}
	}
	if res.Hub.Deaths() != 0 {
		t.Errorf("deaths = %d, want 0", res.Hub.Deaths())
	}
	// The duplicated round-2 frame surfaces as a discarded stale frame
	// during round 3.
	if res.Hub.Count(EventStale) == 0 {
		t.Error("expected the duplicate frame to be discarded as stale")
	}
	if res.Nodes[0].Count(EventDelay) != 1 || res.Nodes[2].Count(EventDup) != 1 {
		t.Error("injected delay/dup events missing from node reports")
	}
}

func TestCrashStopDegradesGracefully(t *testing.T) {
	// Node 3 crash-stops before round 2: the survivors (n-t of them)
	// must still terminate consistently and the hub must finish.
	const n, tc, rounds = 4, 1, 3
	cfg := quickConfig()
	cfg.Faults = &testInjector{crash: map[int]int{3: 2}}
	res, err := RunLocal(expandMachines(n, tc, rounds, 1), rounds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Errs[3], ErrCrashed) {
		t.Fatalf("node 3 err = %v, want ErrCrashed", res.Errs[3])
	}
	results := make([]proxcensus.Result, 0, n-1)
	for i := 0; i < 3; i++ {
		if res.Errs[i] != nil {
			t.Fatalf("node %d: %v", i, res.Errs[i])
		}
		r := res.Outputs[i].(proxcensus.Result)
		if r.Value != 1 {
			t.Errorf("node %d: value %d, want 1 (validity)", i, r.Value)
		}
		results = append(results, r)
	}
	if err := proxcensus.CheckConsistency(proxcensus.ExpandSlots(rounds), results); err != nil {
		t.Errorf("survivor consistency: %v", err)
	}
	if len(res.Hub.Dead) != n || !res.Hub.Dead[3] {
		t.Errorf("dead = %v, want node 3 marked", res.Hub.Dead)
	}
}

func TestPartitionCutsTraffic(t *testing.T) {
	// Partition {3} away from {0,1,2} for the entire run: with n=4 and
	// t=1 the majority side must still reach full agreement among
	// themselves; node 3 saw only its own echo.
	const n, tc, rounds = 4, 1, 3
	cfg := quickConfig()
	cfg.Faults = &testInjector{part: func(from, to, _ int) bool {
		return (from == 3) != (to == 3)
	}}
	res, err := RunLocal(expandMachines(n, tc, rounds, 1), rounds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := proxcensus.Result{Value: 1, Grade: proxcensus.MaxGrade(proxcensus.ExpandSlots(rounds))}
	results := make([]proxcensus.Result, 0, 3)
	for i := 0; i < 3; i++ {
		if res.Errs[i] != nil {
			t.Fatalf("node %d: %v", i, res.Errs[i])
		}
		r := res.Outputs[i].(proxcensus.Result)
		if r != want {
			t.Errorf("node %d: %v, want %v", i, r, want)
		}
		results = append(results, r)
	}
	if err := proxcensus.CheckConsistency(proxcensus.ExpandSlots(rounds), results); err != nil {
		t.Errorf("majority consistency: %v", err)
	}
	// Everybody stays alive: a partition is a routing fault, not a
	// connection fault.
	if res.Hub.Deaths() != 0 {
		t.Errorf("deaths = %d, want 0", res.Hub.Deaths())
	}
	if res.Hub.Count(EventPartition) == 0 {
		t.Error("expected partition events in the hub report")
	}
}
