package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestEnvCorruption tables the corruption bookkeeping adversaries rely
// on: Corrupt refuses out-of-range, repeated and over-budget parties,
// IsCorrupted is false outside [0, n), CorruptedSet is sorted and a
// copy, and Budget and CorruptedCount always sum to t.
func TestEnvCorruption(t *testing.T) {
	const n, budget = 7, 3
	env := newEnv(n, budget, rand.New(rand.NewSource(1)), NopTracer{})
	steps := []struct {
		name string
		p    PartyID
		ok   bool
		set  []PartyID
	}{
		{"below range", -1, false, []PartyID{}},
		{"at n", n, false, []PartyID{}},
		{"far out of range", 1 << 20, false, []PartyID{}},
		{"first", 5, true, []PartyID{5}},
		{"already corrupted", 5, false, []PartyID{5}},
		{"lower id", 2, true, []PartyID{2, 5}},
		{"party 0", 0, true, []PartyID{0, 2, 5}},
		{"over budget", 6, false, []PartyID{0, 2, 5}},
		{"over budget, already corrupted", 2, false, []PartyID{0, 2, 5}},
	}
	for _, st := range steps {
		if got := env.Corrupt(st.p); got != st.ok {
			t.Errorf("%s: Corrupt(%d) = %v, want %v", st.name, st.p, got, st.ok)
		}
		set := env.CorruptedSet()
		if !slices.Equal(set, st.set) {
			t.Errorf("%s: CorruptedSet = %v, want %v", st.name, set, st.set)
		}
		if env.CorruptedCount() != len(st.set) || env.Budget() != budget-len(st.set) {
			t.Errorf("%s: CorruptedCount = %d, Budget = %d, want %d and %d",
				st.name, env.CorruptedCount(), env.Budget(), len(st.set), budget-len(st.set))
		}
		for p := -1; p <= n; p++ {
			if want := slices.Contains(st.set, p); env.IsCorrupted(p) != want {
				t.Errorf("%s: IsCorrupted(%d) = %v, want %v", st.name, p, !want, want)
			}
		}
	}

	set := env.CorruptedSet()
	set[0] = 6
	if env.IsCorrupted(6) || env.CorruptedSet()[0] != 0 {
		t.Error("CorruptedSet aliases the environment's state; want a copy")
	}
}
