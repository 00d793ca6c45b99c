package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunModes pins the command line: one flag names the mode, a flag
// the mode has no use for is refused, and the exit code says whether
// the run met its claim (0), missed it (1) or could not run (2).
func TestRunModes(t *testing.T) {
	const id = "v=1:cr=1:0,1,1;3,3,2;1,0,1" // a disagreement the oneshot sweep prints
	checkRuns(t, []runCase{
		{"no mode", nil, 2, "name one of"},
		{"two modes", []string{"-exp", "slots", "-spec", "x.json"}, 2, "name one of"},
		{"unknown table", []string{"-exp", "nope"}, 2, "unknown experiment"},
		{"flag of another mode", []string{"-conform", "all", "-out", "dir"}, 2, "-out has no meaning with -conform"},
		{"sweep flag on a replay", []string{"-conform", "oneshot", "-replay", id, "-inputs", "1100", "-exhaustive"}, 2, "-exhaustive has no meaning with -replay"},
		{"replay of several families", []string{"-conform", "all", "-replay", id, "-inputs", "1100"}, 2, "one family"},
		{"gate on a table without bounds", []string{"-exp", "slots", "-gate"}, 1, "no row of -exp slots carries a bound"},
		{"gated table", []string{"-exp", "iterprob", "-trials", "200", "-gate"}, 0, "gate: all 6 bounded rows within their bounds"},
		{"replayed violation", []string{"-conform", "oneshot", "-replay", id, "-inputs", "1100"}, 1, "VIOLATION target=oneshot"},
		{"clean replay", []string{"-conform", "oneshot", "-replay", id, "-inputs", "1111"}, 0, "replay clean"},
		{"gated artifact", []string{"-curve", "../../results/experiments/smoke-expand.jsonl", "-gate"}, 0, "faults=0 trials decided"},
		{"list", []string{"-list"}, 0, "iterprob"},

		// -run: one execution. Inputs the run could not honour fail
		// pre-flight with a pointed error (also TestRunRejectsBadCoin
		// and TestRunRejectsBadRelease).
		{"unknown protocol", []string{"-run", "pbft"}, 2, `unknown -run protocol "pbft"`},
		{"equivocating dealer without a budget", []string{"-run", "proxcast", "-t", "0", "-adversary", "equivocate"}, 2, "corrupts the dealer, so it needs -t >= 1, got 0"},
		{"withholding dealer without a budget", []string{"-run", "proxcast", "-t", "0", "-adversary", "withhold"}, 2, "corrupts the dealer, so it needs -t >= 1, got 0"},
		{"kappa past the slot bound", []string{"-run", "oneshot", "-n", "4", "-t", "1", "-kappa", "63"}, 2, "kappa must be <= 62"},
		{"kappa at the shift width", []string{"-run", "oneshot", "-n", "4", "-t", "1", "-kappa", "64"}, 2, "kappa must be <= 62"},
		{"simulator adversary over TCP", []string{"-run", "half", "-n", "5", "-adversary", "worstcase", "-tcp"}, 2, "'byz:NODE@ROLE' in -faults"},
		{"dealer strategy over TCP", []string{"-run", "proxcast", "-adversary", "equivocate", "-faults", "crash:2@3"}, 2, "'byz:NODE@ROLE' in -faults"},
		{"dealer strategy for BA", []string{"-run", "oneshot", "-adversary", "withhold"}, 2, `unknown -adversary "withhold" for -run oneshot`},
		{"flag of the other protocol", []string{"-run", "oneshot", "-release", "5"}, 2, "-release has no meaning with -run oneshot"},
		{"BA flag on proxcast", []string{"-run", "proxcast", "-coin", "threshold"}, 2, "-coin has no meaning with -run proxcast"},
		{"run flag on a sweep", []string{"-conform", "all", "-faults", "crash:1@1"}, 2, "-faults has no meaning with -conform"},
		{"proxcast over TCP without faults", []string{"-run", "proxcast", "-s", "5", "-tcp"}, 0, "rejected=0\nCONSISTENCY: ok"},
		{"BA under faults", []string{"-run", "oneshot", "-n", "4", "-t", "1", "-kappa", "2", "-faults", "crash:3@2", "-round-timeout", "200ms"}, 0, "faulty: [3]\n\ndecisions (TCP nodes, by ID): 0 0 0\nAGREEMENT: ok"},
	})
}

// TestRunRejectsBadCoin: a BA run names its coin exactly, or fails
// pre-flight instead of running with a substituted default.
func TestRunRejectsBadCoin(t *testing.T) {
	checkRuns(t, []runCase{
		{"misspelt coin", []string{"-run", "oneshot", "-n", "7", "-t", "2", "-kappa", "4", "-coin", "thresold"}, 2, `unknown -coin "thresold"`},
		{"capitalised coin", []string{"-run", "oneshot", "-n", "7", "-t", "2", "-kappa", "4", "-coin", "Threshold"}, 2, `unknown -coin "Threshold"`},
		{"empty coin", []string{"-run", "oneshot", "-n", "7", "-t", "2", "-kappa", "4", "-coin", ""}, 2, `unknown -coin ""`},
	})
}

// TestRunRejectsBadRelease: a release-dealer scenario the simulator
// cannot honour fails pre-flight, instead of dying inside the engine or
// reporting a run that never released anything.
func TestRunRejectsBadRelease(t *testing.T) {
	checkRuns(t, []runCase{
		{"release without an accomplice", []string{"-run", "proxcast", "-n", "4", "-t", "1", "-s", "5", "-adversary", "release", "-release", "3"}, 2, "needs -t >= 2, got 1"},
		{"release past the last round", []string{"-run", "proxcast", "-s", "5", "-adversary", "release", "-release", "20"}, 2, "-release must lie in [1, s-1] = [1, 4]"},
		{"release at the slot count", []string{"-run", "proxcast", "-s", "5", "-adversary", "release", "-release", "5"}, 2, "-release must lie in [1, s-1] = [1, 4]"},
		{"release before round 1", []string{"-run", "proxcast", "-s", "5", "-adversary", "release", "-release", "0"}, 2, "-release must lie in [1, s-1] = [1, 4]"},
	})
}

// A runCase is one proxlab command line and what it must answer.
type runCase struct {
	name string
	args []string
	code int
	want string // in stdout or stderr
}

func checkRuns(t *testing.T, cases []runCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code || !strings.Contains(stdout.String()+stderr.String(), tc.want) {
				t.Errorf("run(%q) = %d, want %d with %q\nstdout:\n%s\nstderr:\n%s",
					tc.args, code, tc.code, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestRunGoldens: every simulator execution prints, byte for byte, what
// the single-run binaries -run replaced printed for the same arguments
// (testdata/*.golden were recorded from them).
func TestRunGoldens(t *testing.T) {
	for golden, args := range map[string]string{
		"run-oneshot":             "-run oneshot -n 7 -t 2 -kappa 8",
		"run-half-worstcase":      "-run half -n 5 -t 2 -kappa 6 -adversary worstcase -coin threshold",
		"run-fm-verbose":          "-run fm -n 4 -t 1 -kappa 3 -v -seed 7",
		"run-proxcast-honest":     "-run proxcast -adversary honest",
		"run-proxcast-equivocate": "-run proxcast -adversary equivocate",
		"run-proxcast-withhold":   "-run proxcast -adversary withhold",
		"run-proxcast-release":    "-run proxcast -adversary release -release 5 -s 9",
	} {
		t.Run(golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
				t.Fatalf("proxlab %s: exit %d: %s", args, code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("proxlab %s differs from testdata/%s.golden:\n%s", args, golden, stdout.String())
			}
		})
	}
}

// TestRunWritesTables: -exp -out writes the table the checked-in
// results hold, as text and CSV.
func TestRunWritesTables(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "rounds13", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, name := range []string{"rounds13.txt", "rounds13.csv"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from results/%s:\n%s", name, name, got)
		}
	}
}
