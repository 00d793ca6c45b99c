package chaos_test

import (
	"fmt"
	"testing"
	"time"

	"proxcensus/internal/chaos"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// Mirrors internal/sim/replay_test.go: the same seed must reproduce
// the same schedule, and executing it twice must reproduce the same
// deterministic trace hash, or chaos failures cannot be replayed.

func TestGenerateIsDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a := chaos.Generate(7, 2, 4, seed)
		b := chaos.Generate(7, 2, 4, seed)
		if a.Spec() != b.Spec() {
			t.Fatalf("seed %d: specs diverge:\n%s\n%s", seed, a.Spec(), b.Spec())
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("seed %d: fingerprints diverge", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid schedule %q: %v", seed, a.Spec(), err)
		}
	}
}

func TestSpecParseRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		s := chaos.Generate(7, 2, 4, seed)
		parsed, err := chaos.Parse(s.Spec(), s.N, s.T, s.Rounds)
		if err != nil {
			t.Fatalf("seed %d: parse %q: %v", seed, s.Spec(), err)
		}
		if parsed.Spec() != s.Spec() {
			t.Errorf("seed %d: round trip %q -> %q", seed, s.Spec(), parsed.Spec())
		}
		if parsed.Fingerprint() != s.Fingerprint() {
			t.Errorf("seed %d: fingerprint changed across round trip", seed)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := map[string]string{
		"unknown kind":     "flood:1@2",
		"missing round":    "crash:1",
		"bad node":         "crash:x@1",
		"out of range":     "crash:9@1",
		"round too large":  "crash:1@99",
		"over budget":      "crash:0@1;crash:1@1;crash:2@1",
		"empty side":       "part:@1-2",
		"full side":        "part:0,1,2,3,4@1-2",
		"inverted range":   "part:1@3-2",
		"missing duration": "delay:1@2",
		"bad duration":     "delay:1@2+fast",
	}
	for name, spec := range bad { //lint:ordered assertions are independent per case
		if _, err := chaos.Parse(spec, 5, 2, 4); err == nil {
			t.Errorf("%s: Parse(%q) succeeded, want error", name, spec)
		}
	}
}

func TestParseAcceptsHandWrittenSpec(t *testing.T) {
	s, err := chaos.Parse(" crash:3@2; drop:1@2;delay:0@1+50ms;part:4@2-3; ", 5, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := "crash:3@2;drop:1@2;delay:0@1+50ms;part:4@2-3"
	if s.Spec() != want {
		t.Errorf("Spec() = %q, want %q", s.Spec(), want)
	}
	faulty := fmt.Sprint(s.FaultyNodes())
	if faulty != "[3 4]" {
		t.Errorf("FaultyNodes() = %s, want [3 4]", faulty)
	}
}

// TestScheduleDelayAddsNetworkEgress pins the one place a network model
// reaches the transport: a net segment adds the model's egress latency
// to the node's scheduled delay, and without one the delay is the
// schedule's alone.
func TestScheduleDelayAddsNetworkEgress(t *testing.T) {
	const n, tc, rounds = 4, 1, 3
	withNet, err := chaos.Parse("net:lan@5;delay:1@2+5ms", n, tc, rounds)
	if err != nil {
		t.Fatal(err)
	}
	egress := withNet.NetModel().Egress(1, 2, n)
	if egress <= 0 {
		t.Fatalf("lan egress %s, want positive", egress)
	}
	if got, want := withNet.Delay(1, 2), 5*time.Millisecond+egress; got != want {
		t.Errorf("with net: Delay(1, 2) = %s, want 5ms + egress %s = %s", got, egress, want)
	}
	if got := withNet.Delay(0, 2); got != withNet.NetModel().Egress(0, 2, n) {
		t.Errorf("with net: undelayed node 0 pays %s, want its egress alone", got)
	}
	bare, err := chaos.Parse("delay:1@2+5ms", n, tc, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if got := bare.Delay(1, 2); got != 5*time.Millisecond {
		t.Errorf("without net: Delay(1, 2) = %s, want 5ms", got)
	}
}

func TestTraceHashReplay(t *testing.T) {
	// Same seed, two full TCP executions: identical trace hashes.
	const n, tc, rounds = 4, 1, 3
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			hashes := make([]string, 2)
			for run := range hashes {
				s := chaos.Generate(n, tc, rounds, seed)
				machines := make([]sim.Machine, n)
				for i := range machines {
					machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, 1)
				}
				res, err := chaos.Run(machines, s, quickCfg())
				if err != nil {
					t.Fatalf("run %d, spec %q: %v", run, s.Spec(), err)
				}
				if err := res.CheckAgreement(); err != nil {
					t.Fatalf("run %d, spec %q: %v", run, s.Spec(), err)
				}
				hashes[run] = res.TraceHash()
			}
			if hashes[0] != hashes[1] {
				t.Errorf("trace hashes diverge across replays: %s vs %s", hashes[0], hashes[1])
			}
		})
	}
}
