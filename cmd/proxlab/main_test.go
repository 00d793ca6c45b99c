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
	cases := []struct {
		name string
		args []string
		code int
		want string // in stdout or stderr
	}{
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
	}
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
