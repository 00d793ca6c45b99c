package proxcensus

import (
	"sort"
	"testing"
	"testing/quick"

	"proxcensus/internal/quorum"
)

// mkEchoes builds an echo list from (z, h, count) triples, assigning
// fresh sender IDs.
func mkEchoes(triples ...[3]int) []Echo {
	var echoes []Echo
	next := 0
	for _, t := range triples {
		for i := 0; i < t[2]; i++ {
			echoes = append(echoes, Echo{From: next, Z: t[0], H: t[1]})
			next++
		}
	}
	return echoes
}

func TestMaxGrade(t *testing.T) {
	tests := []struct{ s, want int }{
		{2, 0}, {3, 1}, {4, 1}, {5, 2}, {9, 4}, {10, 4}, {15, 7}, {17, 8},
	}
	for _, tt := range tests {
		if got := MaxGrade(tt.s); got != tt.want {
			t.Errorf("MaxGrade(%d) = %d, want %d", tt.s, got, tt.want)
		}
	}
}

func TestSlotIndex(t *testing.T) {
	tests := []struct {
		s    int
		r    Result
		want int
	}{
		{9, Result{0, 4}, 0},
		{9, Result{0, 1}, 3},
		{9, Result{0, 0}, 4},
		{9, Result{1, 0}, 4}, // odd s: single shared middle slot
		{9, Result{1, 1}, 5},
		{9, Result{1, 4}, 8},
		{10, Result{0, 4}, 0},
		{10, Result{0, 0}, 4},
		{10, Result{1, 0}, 5}, // even s: two middle slots
		{10, Result{1, 4}, 9},
		{3, Result{0, 1}, 0},
		{3, Result{0, 0}, 1},
		{3, Result{1, 1}, 2},
	}
	for _, tt := range tests {
		got, err := SlotIndex(tt.s, tt.r)
		if err != nil {
			t.Errorf("SlotIndex(%d, %v): %v", tt.s, tt.r, err)
			continue
		}
		if got != tt.want {
			t.Errorf("SlotIndex(%d, %v) = %d, want %d", tt.s, tt.r, got, tt.want)
		}
	}
	if _, err := SlotIndex(9, Result{0, 5}); err == nil {
		t.Error("grade above MaxGrade must error")
	}
	if _, err := SlotIndex(9, Result{7, 2}); err == nil {
		t.Error("non-binary value must error")
	}
}

func TestExpandSlots(t *testing.T) {
	tests := []struct{ r, want int }{{0, 2}, {1, 3}, {2, 5}, {3, 9}, {4, 17}, {10, 1025}}
	for _, tt := range tests {
		if got := ExpandSlots(tt.r); got != tt.want {
			t.Errorf("ExpandSlots(%d) = %d, want %d", tt.r, got, tt.want)
		}
	}
}

// TestExpandStepBase checks the Prox_2 -> Prox_3 base step (n=4, t=1).
func TestExpandStepBase(t *testing.T) {
	const n, tc, s = 4, 1, 2
	tests := []struct {
		name   string
		echoes []Echo
		want   Result
	}{
		{"unanimous zero", mkEchoes([3]int{0, 0, 4}), Result{0, 1}},
		{"unanimous one", mkEchoes([3]int{1, 0, 4}), Result{1, 1}},
		{"n-t zeros", mkEchoes([3]int{0, 0, 3}, [3]int{1, 0, 1}), Result{0, 1}},
		{"n-t ones", mkEchoes([3]int{1, 0, 3}, [3]int{0, 0, 1}), Result{1, 1}},
		{"even split", mkEchoes([3]int{0, 0, 2}, [3]int{1, 0, 2}), Result{0, 0}},
		{"too few echoes", mkEchoes([3]int{0, 0, 2}), Result{0, 0}},
		{"multivalued n-t", mkEchoes([3]int{7, 0, 3}, [3]int{2, 0, 1}), Result{7, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ExpandStep(n, tc, s, tt.echoes); got != tt.want {
				t.Errorf("ExpandStep = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestExpandStepFig2Odd reproduces the Prox_5 -> Prox_9 expansion of
// Fig. 2 (odd source, b=1, source grades 0..2 -> target grades 0..4)
// with n=4, t=1 (n-t=3, n-2t=2).
func TestExpandStepFig2Odd(t *testing.T) {
	const n, tc, s = 4, 1, 5
	tests := []struct {
		name   string
		echoes []Echo
		want   Result
	}{
		// Row (z, 4): n-t echoes on the extreme slot (z, 2).
		{"top grade", mkEchoes([3]int{1, 2, 3}, [3]int{0, 0, 1}), Result{1, 4}},
		// Row (z, 3): n-t across (z,1),(z,2) with n-2t at (z,2).
		{"grade 3", mkEchoes([3]int{1, 1, 1}, [3]int{1, 2, 2}, [3]int{0, 0, 1}), Result{1, 3}},
		// Row (z, 2): n-t across (z,1),(z,2) with n-2t only at (z,1).
		{"grade 2", mkEchoes([3]int{1, 1, 2}, [3]int{1, 2, 1}, [3]int{0, 0, 1}), Result{1, 2}},
		// Tie: n-2t at both (z,1) and (z,2) -> the upper branch wins.
		{"tie upper", mkEchoes([3]int{1, 1, 2}, [3]int{1, 2, 2}), Result{1, 3}},
		// Row (z, 1): n-t across the pooled zero slot and (z,1), with
		// n-2t at (z,1).
		{"grade 1 via zero pool", mkEchoes([3]int{1, 0, 2}, [3]int{1, 1, 2}), Result{1, 1}},
		{"grade 1 mixed-value zeros", mkEchoes([3]int{0, 0, 1}, [3]int{25, 0, 1}, [3]int{1, 1, 2}), Result{1, 1}},
		// Not enough weight anywhere: grade 0.
		{"scattered", mkEchoes([3]int{0, 1, 1}, [3]int{1, 1, 1}, [3]int{0, 0, 1}, [3]int{1, 0, 1}), Result{0, 0}},
		// Validity row: everyone on (0,2).
		{"unanimous", mkEchoes([3]int{0, 2, 4}), Result{0, 4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ExpandStep(n, tc, s, tt.echoes); got != tt.want {
				t.Errorf("ExpandStep = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestExpandStepFig2Even reproduces the Prox_4 -> Prox_7 expansion of
// Fig. 2 (even source, b=0, source grades 0..1 -> target grades 0..3).
func TestExpandStepFig2Even(t *testing.T) {
	const n, tc, s = 4, 1, 4
	tests := []struct {
		name   string
		echoes []Echo
		want   Result
	}{
		// n-t on the extreme (z,1): top grade 2G+1-b = 3.
		{"top grade", mkEchoes([3]int{1, 1, 3}, [3]int{0, 0, 1}), Result{1, 3}},
		// n-t across (z,0),(z,1), n-2t at (z,1): grade 2.
		{"grade 2", mkEchoes([3]int{1, 0, 1}, [3]int{1, 1, 2}, [3]int{0, 0, 1}), Result{1, 2}},
		// n-t across (z,0),(z,1), n-2t only at (z,0): grade 1.
		{"grade 1", mkEchoes([3]int{1, 0, 2}, [3]int{1, 1, 1}, [3]int{0, 0, 1}), Result{1, 1}},
		// Even source: grade-0 slots are value-specific; mixed-value
		// zeros do not pool (odd-style pooling would have lifted this to
		// a window with 3 echoes and n-2t on the upper slot).
		{"no pooling", mkEchoes([3]int{0, 0, 1}, [3]int{1, 0, 2}, [3]int{1, 1, 1}), Result{1, 1}},
		{"grade 0", mkEchoes([3]int{0, 0, 2}, [3]int{1, 0, 2}), Result{0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ExpandStep(n, tc, s, tt.echoes); got != tt.want {
				t.Errorf("ExpandStep = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestExpandStepIgnoresGarbage(t *testing.T) {
	const n, tc, s = 4, 1, 3
	echoes := mkEchoes([3]int{1, 1, 3})
	// Duplicate sender: second echo from sender 0 must be dropped.
	echoes = append(echoes, Echo{From: 0, Z: 0, H: 1})
	// Out-of-range grades for the source Prox_3 (maxG = 1).
	echoes = append(echoes, Echo{From: 90, Z: 0, H: 2}, Echo{From: 91, Z: 0, H: -1})
	got := ExpandStep(n, tc, s, echoes)
	if want := (Result{1, 2}); got != want {
		t.Errorf("ExpandStep = %v, want %v", got, want)
	}
}

// TestExpandStepValidityInduction: if all n-t honest parties echo the
// same pair (v, G_src) and the t corrupted echo arbitrary pairs, the
// output is (v, G_target).
func TestExpandStepValidityInduction(t *testing.T) {
	cases := []struct{ n, tc int }{{4, 1}, {7, 2}, {10, 3}, {13, 4}}
	for _, c := range cases {
		for r := 1; r <= 4; r++ {
			s := ExpandSlots(r - 1) // source slots
			echoes := mkEchoes([3]int{1, MaxGrade(s), c.n - c.tc})
			// Corrupted senders (the remaining IDs) echo maximally
			// confusing pairs.
			for i := 0; i < c.tc; i++ {
				echoes = append(echoes, Echo{From: c.n - c.tc + i, Z: 0, H: MaxGrade(s)})
			}
			got := ExpandStep(c.n, c.tc, s, echoes)
			want := Result{1, MaxGrade(2*s - 1)}
			if got != want {
				t.Errorf("n=%d t=%d s=%d: got %v, want %v", c.n, c.tc, s, got, want)
			}
		}
	}
}

// TestQuickExpandStepGradeRange: outputs always have grades within the
// target range, for arbitrary echo soups.
func TestQuickExpandStepGradeRange(t *testing.T) {
	f := func(raw []int16, nSeed, rSeed uint8) bool {
		n := int(nSeed%10)*3 + 4 // 4..31
		tc := (n - 1) / 3
		rounds := int(rSeed%3) + 1
		s := ExpandSlots(rounds - 1)
		echoes := make([]Echo, 0, len(raw)/2)
		for i := 0; i+1 < len(raw) && len(echoes) < n; i += 2 {
			echoes = append(echoes, Echo{From: len(echoes), Z: int(raw[i]), H: int(raw[i+1])})
		}
		out := ExpandStep(n, tc, s, echoes)
		return out.Grade >= 0 && out.Grade <= MaxGrade(2*s-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// expandStepReference is the map-based tally ExpandStep used before it
// became a sorted-run scan, kept as the differential reference for
// FuzzExpandStep and the n=127 tests. It applies the same input filter
// (first echo per in-range sender, source grade range) and the same
// scan order: ascending value, then ascending window, strict
// improvement, and the odd-source grade-1 pooling of S_0.
func expandStepReference(n, t, s int, echoes []Echo) Result {
	maxG := MaxGrade(s)
	b := s % 2
	seen := map[int]bool{}
	count := map[Value]map[int]int{} // value -> grade -> count
	zeroGrade := 0
	for _, e := range echoes {
		if e.From < 0 || e.From >= n || seen[e.From] || e.H < 0 || e.H > maxG {
			continue
		}
		seen[e.From] = true
		if e.H == 0 {
			zeroGrade++
		}
		if count[e.Z] == nil {
			count[e.Z] = map[int]int{}
		}
		count[e.Z][e.H]++
	}
	values := make([]Value, 0, len(count))
	//lint:ordered keys sorted below
	for z := range count {
		values = append(values, z)
	}
	sort.Ints(values)

	out := Result{Value: 0, Grade: 0}
	if b == 1 {
		for _, z := range values {
			c := count[z]
			if quorum.Reached(zeroGrade+c[1], n, t) && quorum.SuperMajority(c[1], n, t) {
				out = Result{Value: z, Grade: 1}
				break
			}
		}
	}
	for _, z := range values {
		c := count[z]
		windowSet := map[int]bool{}
		//lint:ordered set accumulation; the windows are sorted below
		for h := range c {
			for _, g := range [2]int{h - 1, h} {
				if g >= b && g <= maxG-1 {
					windowSet[g] = true
				}
			}
		}
		windows := make([]int, 0, len(windowSet))
		//lint:ordered keys sorted below
		for g := range windowSet {
			windows = append(windows, g)
		}
		sort.Ints(windows)
		for _, g := range windows {
			if !quorum.Reached(c[g]+c[g+1], n, t) {
				continue
			}
			switch {
			case quorum.SuperMajority(c[g+1], n, t):
				if upper := 2*g + 2 - b; upper > out.Grade {
					out = Result{Value: z, Grade: upper}
				}
			case quorum.SuperMajority(c[g], n, t):
				if lower := 2*g + 1 - b; lower > out.Grade {
					out = Result{Value: z, Grade: lower}
				}
			}
		}
	}
	for _, z := range values {
		if quorum.Reached(count[z][maxG], n, t) {
			if top := 2*maxG + 1 - b; top > out.Grade {
				out = Result{Value: z, Grade: top}
			}
		}
	}
	return out
}

// TestExpandStepWarmAllocations pins a warm expandStep at n=127 — the
// benchmark's one-shot shape, honest parties straddling two adjacent
// grades plus t fabricated echoes — at zero allocations, and checks the
// warm scratch still agrees with the reference.
func TestExpandStepWarmAllocations(t *testing.T) {
	const n, tc, s = 127, 42, 17 // source Prox_17, grades 0..8
	echoes := make([]Echo, 0, n+tc)
	for p := 0; p < n; p++ {
		switch {
		case p < tc: // Byzantine: fabricated values, out-of-range grades, duplicates
			echoes = append(echoes, Echo{From: p, Z: -p, H: p % 10}, Echo{From: p, Z: 1, H: 8})
		case p == tc:
			echoes = append(echoes, Echo{From: p, Z: 0, H: 5})
		default:
			echoes = append(echoes, Echo{From: p, Z: 0, H: 4})
		}
	}
	sc := newExpandScratch(n)
	want := expandStepReference(n, tc, s, echoes)
	if got := expandStep(n, tc, s, echoes, sc); got != want {
		t.Fatalf("expandStep = %v, reference = %v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { expandStep(n, tc, s, echoes, sc) }); allocs != 0 {
		t.Errorf("warm expandStep allocates %.1f objects per step; want 0", allocs)
	}
	if got := expandStep(n, tc, s, echoes, sc); got != want {
		t.Errorf("warm expandStep = %v, reference = %v", got, want)
	}
}
