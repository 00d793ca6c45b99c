package chaos_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"proxcensus/internal/ba"
	"proxcensus/internal/chaos"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/transport"
)

// TestMain runs every schedule — crashes, drops, duplicates, churn,
// Byzantine peers — with released transport frames poisoned
// (transport.SetFramePoison), so a frame released while anything still
// reads it breaks a decision or a trace hash here.
func TestMain(m *testing.M) {
	transport.SetFramePoison(true)
	os.Exit(m.Run())
}

// quickCfg keeps chaos runs fast: each crash round costs one
// RoundTimeout of hub waiting, everything else completes in
// milliseconds. Injected delays top out at 50ms, a 6x margin. It sets
// no NewIngress, so every node screens with validate.General.
func quickCfg() transport.Config {
	return transport.Config{
		RoundTimeout: 300 * time.Millisecond,
		JoinTimeout:  2 * time.Second,
	}
}

// seedCount decides how many seeds to sweep: CHAOS_SEEDS overrides
// (the nightly CI job cranks it up), otherwise short mode runs 2 and
// the full suite 5.
func seedCount(t *testing.T) int {
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_SEEDS=%q: %v", s, err)
		}
		return n
	}
	if testing.Short() {
		return 2
	}
	return 5
}

// dumpLog writes the full chaos log to CHAOS_LOG_DIR (if set) so CI
// can attach it as a failure artifact.
func dumpLog(t *testing.T, name string, res *chaos.Result) {
	dir := os.Getenv("CHAOS_LOG_DIR")
	if dir == "" {
		return
	}
	var b bytes.Buffer
	if err := res.WriteLog(&b); err != nil {
		t.Logf("chaos: render log: %v", err)
		return
	}
	path := filepath.Join(dir, name+".log")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Logf("chaos: write log: %v", err)
		return
	}
	t.Logf("chaos log written to %s", path)
}

func TestChaosExpandProxcensus(t *testing.T) {
	// Graded consensus under injected faults: with every honest input 1
	// and at most t faulty nodes, survivors must agree on value 1 with
	// the maximum grade and satisfy the proxcensus consistency predicate.
	const n, tc, rounds = 5, 1, 4
	for seed := int64(1); seed <= int64(seedCount(t)); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			s := chaos.Generate(n, tc, rounds, seed)
			machines := make([]sim.Machine, n)
			for i := range machines {
				machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, 1)
			}
			res, err := chaos.Run(machines, s, quickCfg())
			if err != nil {
				t.Fatalf("spec %q: %v", s.Spec(), err)
			}
			defer func() {
				if t.Failed() {
					dumpLog(t, fmt.Sprintf("expand-seed%d", seed), res)
				}
			}()
			if err := res.CheckAgreement(); err != nil {
				t.Fatalf("spec %q: %v", s.Spec(), err)
			}
			results := make([]proxcensus.Result, 0, n)
			for _, id := range res.Survivors() {
				r := res.Outputs[id].(proxcensus.Result)
				if r.Value != 1 {
					t.Errorf("spec %q: survivor %d value %d, want 1", s.Spec(), id, r.Value)
				}
				results = append(results, r)
			}
			if err := proxcensus.CheckConsistency(proxcensus.ExpandSlots(rounds), results); err != nil {
				t.Errorf("spec %q: %v", s.Spec(), err)
			}
		})
	}
}

func TestChaosOneShotBA(t *testing.T) {
	// The headline κ+1-round protocol (t < n/3) with the threshold
	// coin: n-t >= t+1 survivors can always reconstruct the coin, and
	// validity forces the common input through any benign fault mix.
	const n, tc, kappa = 7, 2, 2
	for seed := int64(1); seed <= int64(seedCount(t)); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
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
			s := chaos.Generate(n, tc, p.Rounds, seed)
			res, err := chaos.Run(p.Machines, s, quickCfg())
			if err != nil {
				t.Fatalf("spec %q: %v", s.Spec(), err)
			}
			defer func() {
				if t.Failed() {
					dumpLog(t, fmt.Sprintf("oneshot-seed%d", seed), res)
				}
			}()
			if err := res.CheckAgreement(); err != nil {
				t.Fatalf("spec %q: %v", s.Spec(), err)
			}
			for _, id := range res.Survivors() {
				if v := res.Outputs[id].(ba.Value); v != 1 {
					t.Errorf("spec %q: survivor %d decided %d, want 1 (validity)", s.Spec(), id, v)
				}
			}
		})
	}
}

func TestChaosHalfBA(t *testing.T) {
	// The t < n/2 construction under the same fault mixes.
	const n, tc, kappa = 5, 2, 2
	for seed := int64(1); seed <= int64(seedCount(t)); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
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
			s := chaos.Generate(n, tc, p.Rounds, seed)
			res, err := chaos.Run(p.Machines, s, quickCfg())
			if err != nil {
				t.Fatalf("spec %q: %v", s.Spec(), err)
			}
			defer func() {
				if t.Failed() {
					dumpLog(t, fmt.Sprintf("half-seed%d", seed), res)
				}
			}()
			if err := res.CheckAgreement(); err != nil {
				t.Fatalf("spec %q: %v", s.Spec(), err)
			}
			for _, id := range res.Survivors() {
				if v := res.Outputs[id].(ba.Value); v != 1 {
					t.Errorf("spec %q: survivor %d decided %d, want 1 (validity)", s.Spec(), id, v)
				}
			}
		})
	}
}

func TestRunRejectsMismatchedMachines(t *testing.T) {
	s := chaos.Generate(4, 1, 2, 1)
	if _, err := chaos.Run(make([]sim.Machine, 3), s, quickCfg()); err == nil {
		t.Error("expected machine-count mismatch error")
	}
}
