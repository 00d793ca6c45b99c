package transport

import (
	"testing"
	"time"
)

func TestNetModelDeterministicAndBounded(t *testing.T) {
	m, ok := LookupNetModel("wan", 42)
	if !ok {
		t.Fatal("wan model missing")
	}
	max := m.MaxLinkDelay()
	min := time.Duration(float64(m.Base) * (1 - m.Asym))
	for from := 0; from < 5; from++ {
		for to := 0; to < 5; to++ {
			if to == from {
				continue
			}
			for round := 1; round <= 4; round++ {
				d := m.LinkDelay(from, to, round)
				if d != m.LinkDelay(from, to, round) {
					t.Fatalf("link %d->%d r%d nondeterministic", from, to, round)
				}
				if d < min || d > max {
					t.Fatalf("link %d->%d r%d delay %s outside [%s, %s]", from, to, round, d, min, max)
				}
			}
		}
	}
	// Same name, different seed: a different execution.
	m2, _ := LookupNetModel("wan", 43)
	same := true
	for round := 1; round <= 8 && same; round++ {
		same = m.LinkDelay(0, 1, round) == m2.LinkDelay(0, 1, round)
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical link delays")
	}
}

func TestNetModelAsymmetry(t *testing.T) {
	m, _ := LookupNetModel("wan", 7)
	// Directed links draw independent stable multipliers: across a few
	// node pairs at least one must differ between directions.
	diff := false
	for a := 0; a < 4 && !diff; a++ {
		for b := a + 1; b < 4 && !diff; b++ {
			diff = m.LinkDelay(a, b, 1)-m.LinkDelay(b, a, 1) != 0
		}
	}
	if !diff {
		t.Fatal("no directed link pair showed asymmetric latency")
	}
}

func TestNetModelEgressIsWorstLink(t *testing.T) {
	m, _ := LookupNetModel("sat", 9)
	const n, round = 6, 3
	for id := 0; id < n; id++ {
		var worst time.Duration
		for to := 0; to < n; to++ {
			if to == id {
				continue
			}
			if d := m.LinkDelay(id, to, round); d > worst {
				worst = d
			}
		}
		if got := m.Egress(id, round, n); got != worst {
			t.Fatalf("node %d egress %s != worst link %s", id, got, worst)
		}
	}
}

func TestLookupNetModelUnknown(t *testing.T) {
	if _, ok := LookupNetModel("bogus", 1); ok {
		t.Fatal("unknown model name resolved")
	}
	for _, name := range NetModelNames() {
		if _, ok := LookupNetModel(name, 1); !ok {
			t.Fatalf("named model %q missing", name)
		}
	}
}

func TestJitterBackoffBoundsAndDeterminism(t *testing.T) {
	base := 40 * time.Millisecond
	for id := 0; id < 8; id++ {
		for attempt := 1; attempt < 4; attempt++ {
			w := jitterBackoff(base, id, 0, attempt)
			if w != jitterBackoff(base, id, 0, attempt) {
				t.Fatalf("jitter nondeterministic for id=%d attempt=%d", id, attempt)
			}
			if w <= base/2 || w > base {
				t.Fatalf("jitter %s outside (%s, %s]", w, base/2, base)
			}
		}
	}
	// Different nodes must not herd onto the same wait.
	spread := map[time.Duration]bool{}
	for id := 0; id < 16; id++ {
		spread[jitterBackoff(base, id, 0, 1)] = true
	}
	if len(spread) < 8 {
		t.Fatalf("16 nodes shared only %d distinct jittered waits", len(spread))
	}
	// Degenerate backoffs pass through untouched.
	if got := jitterBackoff(1, 3, 0, 1); got != 1 {
		t.Fatalf("tiny backoff changed: %v", got)
	}
}
