package ba

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"proxcensus/internal/quorum"
	"proxcensus/internal/sim"
)

// refDigestPrefix is the count-map rule the digest prefix ran before it
// tallied into scratch: per round, each sender's first message of the
// round's class counts — in round 2 only valid echoes, so an invalid
// echo does not use up its sender — whatever the sender's ID; round 1
// takes the smallest value with n-t support, round 2 the most-echoed
// value with ties to the smallest.
type refDigestPrefix struct {
	n, t int
}

func (r refDigestPrefix) counts(round int, in []sim.Message) map[Value]int {
	counts := make(map[Value]int)
	seen := make(map[sim.PartyID]bool)
	for _, msg := range in {
		var v Value
		switch p := msg.Payload.(type) {
		case TCValue:
			if round != 1 {
				continue
			}
			v = p.V
		case TCEcho:
			if round != 2 || !p.Valid {
				continue
			}
			v = p.V
		default:
			continue
		}
		if seen[msg.From] {
			continue
		}
		seen[msg.From] = true
		counts[v]++
	}
	return counts
}

func sortedValues(counts map[Value]int) []Value {
	keys := make([]Value, 0, len(counts))
	//lint:ordered keys sorted below
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (r refDigestPrefix) round1(in []sim.Message) (Value, bool) {
	counts := r.counts(1, in)
	for _, v := range sortedValues(counts) {
		if quorum.Reached(counts[v], r.n, r.t) {
			return v, true
		}
	}
	return 0, false
}

func (r refDigestPrefix) round2(in []sim.Message) tcOutcome[Value] {
	counts := r.counts(2, in)
	best, bestCount := Value(0), 0
	for _, v := range sortedValues(counts) {
		if counts[v] > bestCount {
			best, bestCount = v, counts[v]
		}
	}
	out := tcOutcome[Value]{Cand: best}
	if quorum.Reached(bestCount, r.n, r.t) {
		out.Bit = 1
	}
	return out
}

// TestDigestPrefixMatchesCountMapRule: the digest prefix's first-per-
// sender rule and tie-breaks, round by round, against the count-map
// reference — on the inboxes where a per-sender bitset could drift from
// a per-sender map.
func TestDigestPrefixMatchesCountMapRule(t *testing.T) {
	val := func(from int, v Value) sim.Message { return sim.Message{From: from, Payload: TCValue{V: v}} }
	echo := func(from int, v Value, valid bool) sim.Message {
		return sim.Message{From: from, Payload: TCEcho{V: v, Valid: valid}}
	}
	foreign := func(from int) sim.Message {
		return sim.Message{From: from, Payload: TCPayload{Data: []byte("x")}}
	}
	cases := []struct {
		name   string
		n, t   int
		r1, r2 []sim.Message
	}{
		{"unanimous", 4, 1,
			[]sim.Message{val(0, 5), val(1, 5), val(2, 5), val(3, 5)},
			[]sim.Message{echo(0, 5, true), echo(1, 5, true), echo(2, 5, true), echo(3, 5, true)}},
		{"second message of a sender", 4, 1,
			[]sim.Message{val(0, 5), val(0, 7), val(1, 7), val(2, 7), val(3, 5)},
			[]sim.Message{echo(0, 7, true), echo(0, 5, true), echo(1, 5, true), echo(2, 5, true), echo(3, 7, true)}},
		{"foreign payload types interleaved", 4, 1,
			[]sim.Message{foreign(0), val(0, 3), echo(1, 3, true), val(1, 3), foreign(2), val(2, 3), val(3, 9)},
			[]sim.Message{val(0, 3), echo(0, 3, true), foreign(1), echo(1, 3, true), val(2, 3), echo(2, 3, true), echo(3, 9, true)}},
		{"invalid echo then valid from one sender", 4, 1,
			[]sim.Message{val(0, 2), val(1, 2), val(2, 2), val(3, 2)},
			[]sim.Message{echo(0, 8, false), echo(0, 2, true), echo(1, 8, false), echo(1, 2, true), echo(2, 2, true), echo(3, 6, true)}},
		// Counted once each, not dropped: the count map took any ID. Round
		// 1 reaches a quorum only if they count, round 2 only if one
		// counts twice.
		{"senders outside [0, n)", 4, 1,
			[]sim.Message{val(-1, 0), val(-1, 0), val(4, 0), val(9, 0), val(0, 5), val(1, 5)},
			[]sim.Message{echo(-1, 0, true), echo(-1, 0, true), echo(4, 0, true), echo(0, 5, true), echo(1, 5, true)}},
		{"senders past the stack bitset", 4, 1,
			[]sim.Message{val(1024, 4), val(1024, 4), val(5000, 4), val(1023, 4), val(0, 1)},
			[]sim.Message{echo(1024, 4, true), echo(1024, 4, true), echo(5000, 4, true), echo(0, 1, true), echo(1, 1, true)}},
		{"value ties broken ascending", 6, 2,
			[]sim.Message{val(0, 9), val(1, 3), val(2, 9), val(3, 3), val(4, 9), val(5, 3)},
			[]sim.Message{echo(0, 9, true), echo(1, 3, true), echo(2, 9, true), echo(3, 3, true), echo(4, 9, true), echo(5, 3, true)}},
		{"two quorums at t >= n/2", 4, 2,
			[]sim.Message{val(0, 8), val(1, 8), val(2, -3), val(3, -3)},
			[]sim.Message{echo(0, 8, true), echo(1, 8, true), echo(2, -3, true), echo(3, -3, true)}},
		{"no quorum", 7, 2,
			[]sim.Message{val(0, 1), val(1, 1), val(2, 1), val(3, 2), val(4, 2), val(5, 3), val(6, 3)},
			[]sim.Message{echo(0, 1, true), echo(1, 2, true), echo(2, 3, true)}},
		{"empty rounds", 4, 1, nil, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := refDigestPrefix{n: c.n, t: c.t}
			m := newTCPrefixThird[Value, valueDomain](c.n, c.t, 0)
			sends := m.Deliver(1, c.r1)
			wantY, wantOK := ref.round1(c.r1)
			if m.yOK != wantOK || (wantOK && m.y != wantY) {
				t.Errorf("round 1: y=%d ok=%t, count-map rule gives %d ok=%t", m.y, m.yOK, wantY, wantOK)
			}
			if e := sends[0].Payload.(TCEcho); e.Valid != wantOK || (wantOK && e.V != wantY) {
				t.Errorf("round 1 echoes %+v", e)
			}
			m.Deliver(2, c.r2)
			if want := ref.round2(c.r2); m.out != want {
				t.Errorf("round 2: %+v, count-map rule gives %+v", m.out, want)
			}
		})
	}
}

// TestDigestPrefixWarmAllocations: counting a round takes no map and no
// slice. Round 2 allocates nothing; round 1 allocates only the echo it
// returns — one Send slice and one boxed TCEcho.
func TestDigestPrefixWarmAllocations(t *testing.T) {
	const n, tc = 16, 5
	r1 := make([]sim.Message, n)
	r2 := make([]sim.Message, n)
	for i := range r1 {
		r1[i] = sim.Message{From: i, Round: 1, Payload: TCValue{V: 42}}
		r2[i] = sim.Message{From: i, Round: 2, Payload: TCEcho{V: 42, Valid: true}}
	}
	m := newTCPrefixThird[Value, valueDomain](n, tc, 42)
	for round, in := range [][]sim.Message{r1, r2} {
		want := 0.0
		if round == 0 {
			want = 2
		}
		m.Deliver(round+1, in)
		if got := testing.AllocsPerRun(50, func() { m.Deliver(round+1, in) }); got != want {
			t.Errorf("round %d: warm Deliver made %.1f allocations, want %.0f", round+1, got, want)
		}
	}
	if m.out != (tcOutcome[Value]{Bit: 1, Cand: 42}) {
		t.Fatalf("outcome %+v, want bit 1 for 42", m.out)
	}
}

// prefixScript is one prefix execution as inboxes: round 1's messages,
// then round 2's, each sender's value sent in the domain's class for
// the round (an echo marked invalid where valid is false).
func prefixScript[T any, D tcDomain[T]](r1 []T, r2 []T, valid []bool) [2][]sim.Message {
	var d D
	var s [2][]sim.Message
	for i, v := range r1 {
		s[0] = append(s[0], sim.Message{From: i % 7, Round: 1, Payload: d.msg(1, v, true)})
	}
	for i, v := range r2 {
		s[1] = append(s[1], sim.Message{From: i % 7, Round: 2, Payload: d.msg(2, v, valid[i])})
	}
	return s
}

// runPrefix drives a prefix through the rounds of script it is given
// and renders what it sent and output after each step.
func runPrefix[T any, D tcDomain[T]](m *tcPrefixThird[T, D], script [2][]sim.Message, rounds int) string {
	var b strings.Builder
	out, ok := m.Output()
	fmt.Fprintf(&b, "start %v | %v %t\n", m.Start(), out, ok)
	for r := 1; r <= rounds; r++ {
		sends := m.Deliver(r, script[r-1])
		out, ok := m.Output()
		fmt.Fprintf(&b, "r%d %v | %v %t\n", r, sends, out, ok)
	}
	return b.String()
}

// checkPrefixResetMatchesNew: a prefix that ran one execution and then
// one abandoned after round 1, then reset with a new input, runs a
// third script exactly as a new prefix does, and holds no value of the
// earlier executions in its tally scratch.
func checkPrefixResetMatchesNew[T any, D tcDomain[T]](t *testing.T, inputs [3]T, scripts [3][2][]sim.Message) {
	t.Helper()
	const n, tc = 7, 2
	m := newTCPrefixThird[T, D](n, tc, inputs[0])
	runPrefix(m, scripts[0], 2)
	m.reset(inputs[1])
	runPrefix(m, scripts[1], 1)
	m.reset(inputs[2])
	var zero tcCount[T]
	for i, c := range m.counts[:cap(m.counts)] {
		if fmt.Sprint(c) != fmt.Sprint(zero) {
			t.Fatalf("tally entry %d holds %v after reset", i, c)
		}
	}
	got := runPrefix(m, scripts[2], 2)
	want := runPrefix(newTCPrefixThird[T, D](n, tc, inputs[2]), scripts[2], 2)
	if got != want {
		t.Fatalf("after reset:\n%s\nfrom newTCPrefixThird:\n%s", got, want)
	}
}

// TestPrefixResetMatchesNew: the Turpin-Coan prefix's reset in both
// value domains, on scripts with duplicates, invalid echoes and
// equivocating senders: the first decides its input's value, the
// abandoned one stops holding a round-1 candidate, the third gets no
// round-1 quorum and adopts the most-echoed value with bit 0.
func TestPrefixResetMatchesNew(t *testing.T) {
	valid := []bool{true, true, false, true, true, true, true, true, false}
	t.Run("digest", func(t *testing.T) {
		checkPrefixResetMatchesNew[Value, valueDomain](t, [3]Value{4, 6, 2}, [3][2][]sim.Message{
			prefixScript[Value, valueDomain]([]Value{4, 4, 4, 4, 4, 5, 4, 3}, []Value{4, 4, 4, 4, 4, 4, 4, 5, 5}, valid),
			prefixScript[Value, valueDomain]([]Value{6, 6, 6, 6, 6, 6, 1}, nil, nil),
			prefixScript[Value, valueDomain]([]Value{2, 2, 2, 3, 3, 3, 8, 2}, []Value{3, 3, 8, 8, 8, 3, 1, 2, 8}, valid),
		})
	})
	t.Run("payload", func(t *testing.T) {
		b := func(s string) []byte { return []byte(s) }
		checkPrefixResetMatchesNew[[]byte, bytesDomain](t, [3][]byte{b("dd"), b("ff"), b("bb")}, [3][2][]sim.Message{
			prefixScript[[]byte, bytesDomain]([][]byte{b("dd"), b("dd"), b("dd"), b("dd"), b("dd"), b("ee"), b("dd"), b("cc")},
				[][]byte{b("dd"), b("dd"), b("dd"), b("dd"), b("dd"), b("dd"), b("dd"), b("ee"), b("ee")}, valid),
			prefixScript[[]byte, bytesDomain]([][]byte{b("ff"), b("ff"), b("ff"), b("ff"), b("ff"), b("ff"), b("a")}, nil, nil),
			prefixScript[[]byte, bytesDomain]([][]byte{b("bb"), b("bb"), b("bb"), b("cc"), b("cc"), b("cc"), b("hh"), b("bb")},
				[][]byte{b("cc"), b("cc"), b("hh"), b("hh"), b("hh"), b("cc"), b("a"), b("bb"), b("hh")}, valid),
		})
	})
}
