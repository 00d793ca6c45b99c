package conformance_test

import (
	"runtime"
	"strings"
	"testing"

	"proxcensus/internal/ba"
	"proxcensus/internal/conformance"
	"proxcensus/internal/sim"
)

// alpha is the fixed significance level of the conformance bound
// checks. With two families checked per run, the false-rejection
// probability on a correct implementation is at most 2e-4 per CI run —
// and the seed sequence is fixed, so a passing configuration never
// flakes.
const alpha = 1e-4

// TestOneShotDisagreementBound verifies Corollary 2's per-iteration
// failure bound 1/(s-1) = 2^-kappa for the one-shot protocol under the
// sharp adaptive straddle attack.
func TestOneShotDisagreementBound(t *testing.T) {
	trials := 600
	if testing.Short() {
		trials = 200
	}
	for _, kappa := range []int{1, 2} {
		sample, err := conformance.OneShotBoundSample(4, 1, kappa, trials)
		if err != nil {
			t.Fatal(err)
		}
		report, err := sample.Check(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !report.Consistent {
			t.Errorf("kappa=%d: %s", kappa, report)
		}
		// The attack is sharp: a rate far below the bound means the
		// adversary (or the coin wiring) broke, not that the protocol
		// got better. Require at least a third of the expected count.
		if float64(sample.Disagreements) < sample.Bound*float64(sample.Trials)/3 {
			t.Errorf("kappa=%d: attack went dull: %d/%d disagreements at bound %v",
				kappa, sample.Disagreements, sample.Trials, sample.Bound)
		}
	}
}

// TestHalfDisagreementBound verifies the same bound, 1/4 per Prox_5
// iteration, for the t < n/2 linear protocol.
func TestHalfDisagreementBound(t *testing.T) {
	trials := 600
	if testing.Short() {
		trials = 200
	}
	sample, err := conformance.HalfBoundSample(3, 1, 2, trials)
	if err != nil {
		t.Fatal(err)
	}
	report, err := sample.Check(alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Consistent {
		t.Error(report.String())
	}
	if float64(sample.Disagreements) < sample.Bound*float64(sample.Trials)/3 {
		t.Errorf("attack went dull: %d/%d disagreements at bound %v",
			sample.Disagreements, sample.Trials, sample.Bound)
	}
}

// TestBoundCheckerHasTeeth is the statistical arm's mutation self-test:
// the same observed sample tested against a falsely tightened bound
// (half the true one) must be rejected.
func TestBoundCheckerHasTeeth(t *testing.T) {
	sample, err := conformance.OneShotBoundSample(4, 1, 1, 400)
	if err != nil {
		t.Fatal(err)
	}
	sample.Bound /= 2 // mutate 1/(s-1) into 1/(2(s-1))
	report, err := sample.Check(alpha)
	if err != nil {
		t.Fatal(err)
	}
	if report.Consistent {
		t.Errorf("halved bound not rejected: %s", report)
	}
}

// TestBoundSamplePinnedCounts pins the disagreement counts of the two
// bound samples at 5000 trials to the values `proxconform -bounds
// -trials 5000` printed before the sampler ran trials in parallel: the
// seed scheme (trial i builds from seed i, executes with seed i*7+1)
// and the index-order fold make the count a pure function of the trial
// count.
func TestBoundSamplePinnedCounts(t *testing.T) {
	oneshot, err := conformance.OneShotBoundSample(4, 1, 2, 5000)
	if err != nil {
		t.Fatal(err)
	}
	half, err := conformance.HalfBoundSample(3, 1, 2, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if oneshot.Disagreements != 1239 || half.Disagreements != 1304 {
		t.Errorf("disagreements oneshot %d, half %d; want 1239 and 1304 of 5000",
			oneshot.Disagreements, half.Disagreements)
	}
}

// TestSampleSchedulingInvariant runs one sample on one goroutine and on
// four: every field of the outcome must be identical.
func TestSampleSchedulingInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sample := func(procs int) conformance.Outcome {
		runtime.GOMAXPROCS(procs)
		out, err := conformance.OneShotBoundSample(4, 1, 2, 60)
		if err != nil {
			t.Fatal(err)
		}
		return *out
	}
	if one, four := sample(1), sample(4); one != four {
		t.Errorf("GOMAXPROCS(1) and GOMAXPROCS(4) samples differ:\n  %+v\n  %+v", one, four)
	}
}

func TestSampleFaultFree(t *testing.T) {
	out, err := conformance.Sample("test", 10, 0, func(seed int64) (*ba.Protocol, sim.Adversary, error) {
		setup, err := ba.NewSetup(4, 1, ba.CoinIdeal, seed)
		if err != nil {
			return nil, nil, err
		}
		proto, err := ba.NewOneShot(setup, 4, []ba.Value{1, 1, 1, 1})
		if err != nil {
			return nil, nil, err
		}
		return proto, sim.Passive{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Disagreements != 0 {
		t.Errorf("disagreements = %d, want 0", out.Disagreements)
	}
	if out.Rounds != 5 {
		t.Errorf("rounds = %d, want 5", out.Rounds)
	}
	if out.AvgMessages <= 0 || out.AvgBytes <= 0 {
		t.Errorf("traffic averages not positive: %+v", out)
	}
	if out.ErrorRate.Trials != 10 {
		t.Errorf("error-rate trials = %d", out.ErrorRate.Trials)
	}
	if s := out.String(); !strings.Contains(s, "test") {
		t.Errorf("summary %q missing name", s)
	}
}

func TestSampleValidation(t *testing.T) {
	if _, err := conformance.Sample("x", 0, 0, nil); err == nil {
		t.Error("zero trials must fail")
	}
}

func TestSampleRejectsNegativeTrials(t *testing.T) {
	if _, err := conformance.Sample("x", -1, 0, nil); err == nil {
		t.Error("negative trials must fail")
	}
}
