package lint_test

import (
	"testing"

	"proxcensus/internal/lint"
)

// TestModuleIsClean is the one driver of the analyzer suite: it loads
// the whole module once and runs each analyzer over it as its own
// subtest, requiring zero diagnostics, so the determinism invariants
// are enforced, not aspirational. `go test -run
// 'TestModuleIsClean/noretain' ./internal/lint` runs one analyzer;
// scripts/lint.sh runs them all.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the ./... pattern should cover the module", len(pkgs))
	}
	for _, a := range lint.All() {
		t.Run(a.Name, func(t *testing.T) {
			diags, err := lint.AnalyzeAll(loader, a, pkgs)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				t.Errorf("%s: %s", loader.Fset().Position(d.Pos), d.Message)
			}
		})
	}
}

// TestAllAnalyzersRegistered pins the suite contents so a new analyzer
// file cannot be forgotten in the registry (or dropped from it).
func TestAllAnalyzersRegistered(t *testing.T) {
	want := []string{
		"nomapiter", "norandglobal", "nowallclock", "checkederr", "noretain",
		"quorumexpr",
	}
	got := lint.All()
	if len(got) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("%s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("%s has no Run", a.Name)
		}
	}
}
