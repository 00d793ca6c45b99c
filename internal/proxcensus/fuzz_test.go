package proxcensus

import (
	"math"
	"testing"
)

// fuzzValue maps a byte to an echoed value: mostly the honest binary
// values and one more, sometimes a negative or extreme fabrication.
func fuzzValue(b byte) Value {
	switch {
	case b < 160:
		return Value(b % 3)
	case b < 224:
		return Value(int8(b)) // -96..-33
	default:
		return [4]Value{math.MinInt, math.MaxInt, 1 << 40, -(1 << 40)}[b%4]
	}
}

// FuzzExpandStep hammers the expansion rule with arbitrary echo soups
// and checks it against expandStepReference, the map-based tally it
// replaced, on every input, including corruption budgets the protocol
// does not tolerate. Each echo draws its sender, value and grade
// from separate bytes, so senders outside [0, n), duplicate senders,
// fabricated values and out-of-range grades combine freely. It also
// checks that the output grade stays inside the target range, that the
// result is insensitive to echo order (a Byzantine sender cannot gain
// anything by reordering deliveries), and that a scratch reused across
// steps forgets the previous step's senders.
func FuzzExpandStep(f *testing.F) {
	f.Add(4, 1, 1, []byte{0, 0, 0, 1, 0, 0, 2, 1, 0, 3, 1, 0})
	f.Add(7, 2, 2, []byte{0, 4, 1, 1, 3, 2, 2, 2, 3, 3, 1, 1, 4, 0, 0})
	f.Add(10, 3, 3, []byte{9, 9, 8, 8, 7, 7, 6, 250, 2, 5, 170, 1})
	f.Add(31, 10, 7, []byte{0, 1, 33, 1, 1, 33, 2, 1, 32, 3, 0, 0, 40, 1, 33, 41, 2, 1})

	f.Fuzz(func(t *testing.T, nRaw, tRaw, rounds int, raw []byte) {
		abs := func(v int) int {
			if v < 0 {
				if v == -v { // MinInt
					return 0
				}
				return -v
			}
			return v
		}
		n := abs(nRaw)%29 + 4
		tc := abs(tRaw) % n // past n/3 too: the differential is about the tally, not resilience
		r := abs(rounds)%8 + 1
		s := ExpandSlots(r - 1)
		maxG := MaxGrade(s)

		echoes := make([]Echo, 0, len(raw)/3)
		for i := 0; i+2 < len(raw) && len(echoes) < 2*n; i += 3 {
			echoes = append(echoes, Echo{
				From: int(raw[i])%(n+3) - 1, // -1 and n, n+1 are out of range
				Z:    fuzzValue(raw[i+1]),
				H:    int(raw[i+2])%(maxG+3) - 1, // -1 and maxG+1 are out of range
			})
		}

		out := ExpandStep(n, tc, s, echoes)
		if want := expandStepReference(n, tc, s, echoes); out != want {
			t.Fatalf("ExpandStep = %v, reference = %v (n=%d t=%d s=%d echoes=%v)", out, want, n, tc, s, echoes)
		}
		if out.Grade < 0 || out.Grade > MaxGrade(2*s-1) {
			t.Fatalf("grade %d out of range for target slots %d", out.Grade, 2*s-1)
		}

		// Order insensitivity: reversing the echo list must not change
		// the result (first-echo-per-sender dedup is by sender, and
		// reversal changes which duplicate wins — so compare against a
		// deduped baseline instead of the raw reversal).
		seen := map[int]bool{}
		deduped := make([]Echo, 0, len(echoes))
		for _, e := range echoes {
			if seen[e.From] {
				continue
			}
			seen[e.From] = true
			deduped = append(deduped, e)
		}
		reversed := make([]Echo, len(deduped))
		for i, e := range deduped {
			reversed[len(deduped)-1-i] = e
		}
		sc := newExpandScratch(n)
		if got, want := expandStep(n, tc, s, reversed, sc), ExpandStep(n, tc, s, deduped); got != want {
			t.Fatalf("order sensitivity: %v vs %v", got, want)
		}
		if got := expandStep(n, tc, s, echoes, sc); got != out {
			t.Fatalf("reused scratch: %v, fresh scratch: %v", got, out)
		}
	})
}
