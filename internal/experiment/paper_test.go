package experiment_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proxcensus/internal/conformance"
	"proxcensus/internal/experiment"
)

func TestTableRender(t *testing.T) {
	tab := &experiment.Table{
		Title:   "demo",
		Note:    "a note",
		Columns: []string{"a", "bb", "ccc"},
	}
	tab.AddRow(1, 2.5, "x")
	tab.AddRow("long-cell", 3, "y")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a note", "long-cell", "2.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := tab.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := csv.String(); !strings.HasPrefix(got, "a,bb,ccc\n") {
		t.Errorf("csv = %q", got)
	}
}

func TestExperimentRoundTables(t *testing.T) {
	e1 := experiment.ExperimentRoundsThird([]int{10, 20, 30})
	if len(e1.Rows) != 3 {
		t.Fatalf("E1 rows = %d", len(e1.Rows))
	}
	// κ=30: 31 vs 60 — the asymptotic factor-1/2 claim.
	if e1.Rows[2][1] != "31" || e1.Rows[2][2] != "60" {
		t.Errorf("E1 row = %v", e1.Rows[2])
	}
	e2 := experiment.ExperimentRoundsHalf([]int{10, 20})
	if e2.Rows[0][1] != "15" || e2.Rows[0][2] != "20" {
		t.Errorf("E2 row = %v", e2.Rows[0])
	}
}

func TestExperimentSlotGrowth(t *testing.T) {
	tab := experiment.ExperimentSlotGrowth(6)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Round 6: 2^6+1 = 65, 2*6-1 = 11, 3+3*4 = 15, 7 slots.
	last := tab.Rows[5]
	for i, want := range []string{"6", "65", "11", "15", "7"} {
		if last[i] != want {
			t.Errorf("row[%d] = %q, want %q", i, last[i], want)
		}
	}
	// Linear and quadratic are undefined below their minimum rounds.
	if tab.Rows[0][2] != "-" || tab.Rows[1][3] != "-" {
		t.Errorf("rows = %v, %v", tab.Rows[0], tab.Rows[1])
	}
}

func TestExperimentSlotChoice(t *testing.T) {
	tab := experiment.ExperimentSlotChoice(30)
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Find the linear s=5 row and check it has the minimal total rounds
	// across both families.
	totals := map[string]int{}
	best := 1 << 30
	for _, row := range tab.Rows {
		var v int
		if _, err := fmt.Sscan(row[5], &v); err != nil {
			t.Fatalf("total %q: %v", row[5], err)
		}
		totals[row[0]+"/"+row[1]] = v
		if v < best {
			best = v
		}
	}
	if totals["linear/5"] != 45 {
		t.Errorf("s=5 total = %d, want 45 (= 3*kappa/2)", totals["linear/5"])
	}
	if totals["linear/3"] != 60 {
		t.Errorf("s=3 total = %d, want 60 (= 2*kappa)", totals["linear/3"])
	}
	if best != 45 {
		t.Errorf("minimum total = %d; footnote 6 says s=5 (45 rounds) is optimal", best)
	}
}

func TestExperimentIterationFailureQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical experiment")
	}
	tab, err := experiment.ExperimentIterationFailure(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestExperimentCommScaling(t *testing.T) {
	_, fits, err := experiment.ExperimentCommScaling([]int{3, 5, 7, 9, 11}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ours, mvPKI := fits[0], fits[2]
	if ours.Exponent < 1.5 || ours.Exponent > 2.5 {
		t.Errorf("our protocol's comm exponent = %.2f, want ~2", ours.Exponent)
	}
	if mvPKI.Exponent < 2.5 || mvPKI.Exponent > 3.5 {
		t.Errorf("MV-PKI comm exponent = %.2f, want ~3", mvPKI.Exponent)
	}
	if mvPKI.Exponent <= ours.Exponent {
		t.Errorf("MV-PKI exponent %.2f should exceed ours %.2f (the paper's factor-n claim)",
			mvPKI.Exponent, ours.Exponent)
	}
}

func TestExperimentMultivalued(t *testing.T) {
	tab, err := experiment.ExperimentMultivalued([]int{4, 8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// κ=4: one-shot 5 vs multival 7; half 6 vs 9.
	row := tab.Rows[0]
	for i, want := range []string{"4", "5", "7", "6", "9", "5/5"} {
		if row[i] != want {
			t.Errorf("row[%d] = %q, want %q", i, row[i], want)
		}
	}
}

func TestExperimentProxcast(t *testing.T) {
	tab, err := experiment.ExperimentProxcast(6, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 { // release rounds 2..8
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Release at round 2: window 1, expected grade 0 (odd s).
	if tab.Rows[0][2] != "0" {
		t.Errorf("release=2 expected grade %s, want 0", tab.Rows[0][2])
	}
	// Release at round 8: window 7, expected grade 3.
	if tab.Rows[6][2] != "3" {
		t.Errorf("release=8 expected grade %s, want 3", tab.Rows[6][2])
	}
}

// TestExperimentRushing is A3's claim: with the rushing view the
// adaptive splitter forces disagreement, blinded it never does.
func TestExperimentRushing(t *testing.T) {
	tab, err := experiment.ExperimentRushing(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if rushing := tab.Rows[0]; rushing[0] != "rushing (model)" || rushing[1] == "0" {
		t.Errorf("rushing row = %v, want a nonzero error", rushing)
	}
	if blind := tab.Rows[1]; blind[0] != "non-rushing (ablation)" || blind[1] != "0" {
		t.Errorf("non-rushing row = %v, want error 0", blind)
	}
}

func TestExperimentCoinParallelism(t *testing.T) {
	tab, err := experiment.ExperimentCoinParallelism(1, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel: 6 rounds; sequential: 8 rounds.
	if tab.Rows[0][1] != "6" || tab.Rows[1][1] != "8" {
		t.Errorf("rounds = %v / %v", tab.Rows[0], tab.Rows[1])
	}
}

func TestExperimentErrorTables(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical experiment")
	}
	e1, err := experiment.ExperimentErrorThird(1, []int{1, 2}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(e1.Rows) != 2 {
		t.Fatalf("E1 rows = %d", len(e1.Rows))
	}
	e2, err := experiment.ExperimentErrorHalf(1, []int{2}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2.Rows) != 1 {
		t.Fatalf("E2 rows = %d", len(e2.Rows))
	}
}

func TestExperimentTermination(t *testing.T) {
	tab, err := experiment.ExperimentTermination(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	// The stagger adversary must stagger every run.
	found := false
	for _, row := range tab.Rows {
		if row[0] == "lasvegas vs stagger" {
			found = true
			if row[4] != "60/60" {
				t.Errorf("stagger row = %v, want 60/60 staggered", row)
			}
		}
	}
	if !found {
		t.Error("missing stagger row")
	}
}

// TestResultsRegenerate renders every registered paper table at the
// checked-in parameters (proxlab -exp all -trials 2000 -kappa 3) and
// demands results/<id>.txt and .csv byte for byte: the tables are pure
// functions of their parameters.
func TestResultsRegenerate(t *testing.T) {
	for _, pt := range experiment.PaperTables() {
		t.Run(pt.ID, func(t *testing.T) {
			tab, err := pt.Run(2000, 3)
			if err != nil {
				t.Fatal(err)
			}
			var txt, csv bytes.Buffer
			if err := tab.Render(&txt); err != nil {
				t.Fatal(err)
			}
			if err := tab.CSV(&csv); err != nil {
				t.Fatal(err)
			}
			for ext, got := range map[string][]byte{".txt": txt.Bytes(), ".csv": csv.Bytes()} {
				path := filepath.Join("..", "..", "results", pt.ID+ext)
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s does not regenerate:\n--- checked in\n%s\n--- rendered\n%s", path, want, got)
				}
			}
		})
	}
}

// TestGateRejectsRowOverBound is proxlab -exp -gate's verdict: a row
// whose measured rate sits significantly above its bound fails the
// table, and rows within their bound or claiming none pass.
func TestGateRejectsRowOverBound(t *testing.T) {
	sample := func(name string, disagreements int, bound float64) *conformance.Outcome {
		return &conformance.Outcome{Name: name, Trials: 1000, Disagreements: disagreements, Bound: bound}
	}
	tab := &experiment.Table{Columns: []string{"row", "measured"}}
	tab.AddBoundRow("within", sample("within", 240, 0.25), "within", 0.24)
	tab.AddBoundRow("unclaimed", sample("unclaimed", 900, 0), "unclaimed", 0.9)
	var out bytes.Buffer
	if n, exceeded, err := tab.Gate(&out, "unit", 1e-4); err != nil || n != 1 || len(exceeded) != 0 {
		t.Fatalf("Gate() = %d, %v, %v; want 1 row tested and none exceeded\n%s", n, exceeded, err, out.String())
	}
	tab.AddBoundRow("over", sample("over", 400, 0.25), "over", 0.4)
	out.Reset()
	n, exceeded, err := tab.Gate(&out, "unit", 1e-4)
	if err != nil || n != 2 || len(exceeded) != 1 || exceeded[0] != "over" {
		t.Fatalf("Gate() = %d, %v, %v; want 2 rows tested and [over] exceeded", n, exceeded, err)
	}
	if !strings.Contains(out.String(), "gate unit: over: REJECTED") {
		t.Errorf("Gate() wrote no rejection line for the row over its bound:\n%s", out.String())
	}
}
