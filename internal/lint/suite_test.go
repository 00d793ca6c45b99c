package lint_test

import (
	"testing"

	"proxcensus/internal/lint"
)

// TestModuleIsClean runs the full analyzer suite over the whole module,
// exactly as cmd/balint does, and requires zero diagnostics: the
// determinism invariants are enforced, not aspirational. A failure here
// reproduces with `go run ./cmd/balint ./...`.
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
	diags, err := lint.RunSuite(loader, pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", d.Analyzer, loader.Fset().Position(d.Pos), d.Message)
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
