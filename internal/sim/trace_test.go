package sim

import "testing"

func recordedRun(t *testing.T, seed int64) *Recorder {
	t.Helper()
	rec := &Recorder{}
	cfg := Config{N: 3, T: 1, Rounds: 3, Seed: seed, Tracer: rec}
	adv := &midRoundCorruptor{victim: 0, when: 2}
	if _, err := Run(cfg, echoMachines(3, 3), adv); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecorderCapturesRounds(t *testing.T) {
	rec := recordedRun(t, 5)
	if len(rec.Rounds) != 3 {
		t.Fatalf("recorded %d rounds, want 3", len(rec.Rounds))
	}
	if got := len(rec.Rounds[0].Honest); got != 9 {
		t.Errorf("round 1 honest msgs = %d, want 9", got)
	}
	// Victim corrupted in round 2, replacements injected.
	if len(rec.Rounds[1].Corruptions) != 1 || rec.Rounds[1].Corruptions[0] != 0 {
		t.Errorf("round 2 corruptions = %v", rec.Rounds[1].Corruptions)
	}
	if len(rec.Rounds[1].Adversarial) != 3 {
		t.Errorf("round 2 adversarial msgs = %d, want 3", len(rec.Rounds[1].Adversarial))
	}
	// After corruption only 2 honest parties broadcast.
	if got := len(rec.Rounds[2].Honest); got != 6 {
		t.Errorf("round 3 honest msgs = %d, want 6", got)
	}
}

func TestRecorderFingerprintDeterminism(t *testing.T) {
	a := recordedRun(t, 7)
	b := recordedRun(t, 7)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("same seed must produce identical transcripts")
	}
}

func TestRecorderFingerprintDistinguishes(t *testing.T) {
	// Different victims produce different transcripts.
	recA := &Recorder{}
	if _, err := Run(Config{N: 3, T: 1, Rounds: 2, Seed: 1, Tracer: recA},
		echoMachines(3, 2), &midRoundCorruptor{victim: 0, when: 1}); err != nil {
		t.Fatal(err)
	}
	recB := &Recorder{}
	if _, err := Run(Config{N: 3, T: 1, Rounds: 2, Seed: 1, Tracer: recB},
		echoMachines(3, 2), &midRoundCorruptor{victim: 1, when: 1}); err != nil {
		t.Fatal(err)
	}
	if recA.Fingerprint() == recB.Fingerprint() {
		t.Error("different executions must fingerprint differently")
	}
}
