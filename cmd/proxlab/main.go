// Command proxlab runs a declarative experiment spec: a sweep grid of
// protocol family × fault level × network model × seeds, every trial
// timeout-wrapped and classified decided / degraded / timed-out. It
// archives one JSONL line per trial and renders the graceful-
// degradation curve (decision rate with Wilson intervals, wall-clock
// quantiles) as faults sweep 0→t.
//
//	proxlab -spec experiments/specs/smoke-expand.json
//	proxlab -spec experiments/specs/degradation-oneshot.json -out results/experiments
//	proxlab -curve results/experiments/smoke-expand.jsonl
//
// The same spec file and seeds reproduce identical per-trial outcomes
// and trace hashes; the JSONL artifact carries each trial's schedule
// spec for standalone replay via proxcast -faults. With -gate the exit
// status enforces the zero-fault baseline: every faults=0 trial must
// decide, making the smoke spec a CI gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"proxcensus/internal/experiment"
)

func main() {
	var (
		specPath = flag.String("spec", "", "experiment spec file (JSON)")
		outDir   = flag.String("out", "results/experiments", "artifact directory for JSONL results and curve tables")
		curve    = flag.String("curve", "", "skip running: render the degradation curve of an existing JSONL artifact")
		gate     = flag.Bool("gate", false, "exit nonzero unless every faults=0 trial decided")
		quiet    = flag.Bool("q", false, "suppress per-trial progress lines")
	)
	flag.Parse()
	if err := run(*specPath, *outDir, *curve, *gate, *quiet); err != nil {
		fmt.Fprintf(os.Stderr, "proxlab: %v\n", err)
		os.Exit(1)
	}
}

func run(specPath, outDir, curvePath string, gate, quiet bool) error {
	if curvePath != "" {
		return renderCurve(curvePath)
	}
	if specPath == "" {
		return fmt.Errorf("need -spec FILE (or -curve FILE); see experiments/specs/")
	}
	f, err := os.Open(specPath)
	if err != nil {
		return err
	}
	spec, err := experiment.ParseSpec(f)
	_ = f.Close()
	if err != nil {
		return err
	}
	trials, err := spec.Trials()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	artifact := filepath.Join(outDir, spec.Name+".jsonl")
	af, err := os.Create(artifact)
	if err != nil {
		return err
	}

	fmt.Printf("proxlab: %s: family=%s n=%d t=%d rounds=%d trials=%d network=%s\n",
		spec.Name, spec.Family, spec.N, spec.T, spec.ProtocolRounds(), len(trials), orNone(spec.Network))
	fmt.Printf("timeouts: round=%s trial=%s (every trial watchdog-wrapped)\n",
		spec.RoundTimeout(), spec.TrialTimeout())

	// Stream each result the moment it classifies: a killed sweep
	// still leaves a parseable partial artifact, and a failed write
	// (a full disk, say) stops the sweep instead of archiving less
	// than it reports.
	enc := json.NewEncoder(af)
	r := &experiment.Runner{
		Spec: spec,
		Sink: func(tr experiment.TrialResult) error { return enc.Encode(tr) },
	}
	if !quiet {
		r.Logf = func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) }
	}
	results, err := r.Run()
	if cerr := af.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("archived %d trials to %s\n", len(results), artifact)

	cv, err := experiment.Curve(results)
	if err != nil {
		return err
	}
	if err := experiment.WriteCurve(os.Stdout, spec.Name, cv); err != nil {
		return err
	}
	curveFile := filepath.Join(outDir, spec.Name+"-curve.txt")
	cf, err := os.Create(curveFile)
	if err != nil {
		return err
	}
	werr := experiment.WriteCurve(cf, spec.Name, cv)
	if cerr := cf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("curve table written to %s\n", curveFile)

	if gate {
		return checkGate(results)
	}
	return nil
}

// checkGate enforces the zero-fault baseline: with no faults injected
// there is no excuse for anything but a decision.
func checkGate(results []experiment.TrialResult) error {
	baseline, failed := 0, 0
	for _, tr := range results {
		if tr.Faults != 0 {
			continue
		}
		baseline++
		if tr.Outcome != experiment.OutcomeDecided {
			failed++
			fmt.Fprintf(os.Stderr, "gate: trial %d seed=%d: %s (%s)\n", tr.Trial, tr.Seed, tr.Outcome, tr.Detail)
		}
	}
	if baseline == 0 {
		return fmt.Errorf("gate: no faults=0 trials in the sweep")
	}
	if failed > 0 {
		return fmt.Errorf("gate: %d/%d faults=0 trials did not decide", failed, baseline)
	}
	fmt.Printf("gate: all %d faults=0 trials decided\n", baseline)
	return nil
}

// renderCurve re-analyzes an existing artifact, tolerating partial or
// truncated files.
func renderCurve(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	results, skipped, err := experiment.ReadJSONL(f)
	if err != nil {
		return err
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "proxlab: skipped %d malformed line(s) in %s\n", skipped, path)
	}
	if len(results) == 0 {
		return fmt.Errorf("%s holds no parseable trials", path)
	}
	cv, err := experiment.Curve(results)
	if err != nil {
		return err
	}
	return experiment.WriteCurve(os.Stdout, filepath.Base(path), cv)
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
