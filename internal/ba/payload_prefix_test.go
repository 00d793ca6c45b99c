package ba

import (
	"bytes"
	"runtime"
	"sort"
	"testing"

	"proxcensus/internal/quorum"
	"proxcensus/internal/sim"
)

// sortedByteKeys returns count-map keys in ascending lexicographic
// order. It was the prefix's tie-break until the machine stopped
// building a map key per message; it stays here as the reference the
// in-place tally is checked against.
func sortedByteKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	//lint:ordered keys sorted below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// refPrefixRound1 is the count-map rule round 1 used to run: the first
// byte string, ascending, with n-t support.
func refPrefixRound1(n, t int, in [][]byte) (y []byte, ok bool) {
	counts := make(map[string]int)
	for _, data := range in {
		counts[string(data)]++
	}
	for _, k := range sortedByteKeys(counts) {
		if quorum.Reached(counts[k], n, t) {
			return []byte(k), true
		}
	}
	return nil, false
}

// refPrefixRound2 is round 2's: walking ascending, move only on a
// strictly higher count.
func refPrefixRound2(n, t int, in [][]byte) tcOutcome[[]byte] {
	counts := make(map[string]int)
	for _, data := range in {
		counts[string(data)]++
	}
	var best []byte
	bestCount := 0
	for _, k := range sortedByteKeys(counts) {
		if counts[k] > bestCount {
			best, bestCount = []byte(k), counts[k]
		}
	}
	out := tcOutcome[[]byte]{Cand: best}
	if quorum.Reached(bestCount, n, t) {
		out.Bit = 1
	}
	return out
}

// prefixInbox wraps one byte string per sender in the round's payload
// class, sender i sending data[i].
func prefixInbox(round int, data [][]byte) []sim.Message {
	in := make([]sim.Message, len(data))
	for i, d := range data {
		var p sim.Payload = TCPayload{Data: d}
		if round == 2 {
			p = TCPayloadEcho{Data: d, Valid: true}
		}
		in[i] = sim.Message{From: i, Round: round, Payload: p}
	}
	return in
}

// sameBytes is equality that tells nil from empty: the candidate's
// nil-ness travels into the decided output.
func sameBytes(a, b []byte) bool {
	return (a == nil) == (b == nil) && bytes.Equal(a, b)
}

// TestPayloadPrefixMatchesSortedKeyRule: the in-place tally picks the
// candidate, the bit and the tie-break the sorted count-map rule
// picked, bit for bit, on mixed, empty and prefix-sharing inputs —
// including thresholds no deployment runs (t >= n/2), where two byte
// strings can both reach n-t and only the ordering decides.
func TestPayloadPrefixMatchesSortedKeyRule(t *testing.T) {
	big := func(b byte, tail string) []byte {
		return append(bytes.Repeat([]byte{b}, 16<<10), tail...)
	}
	cases := []struct {
		name string
		n, t int
		in   [][]byte
	}{
		{"unanimous", 7, 2, [][]byte{[]byte("a"), []byte("a"), []byte("a"), []byte("a"), []byte("a"), []byte("a"), []byte("a")}},
		{"quorum-minority-empty", 7, 2, [][]byte{[]byte("q"), []byte("q"), []byte("q"), []byte("q"), []byte("q"), []byte("m"), nil}},
		{"no-quorum-three-way", 7, 2, [][]byte{[]byte("c"), []byte("c"), []byte("c"), []byte("b"), []byte("b"), []byte("a"), []byte("a")}},
		{"tie-smallest-wins", 6, 2, [][]byte{[]byte("zz"), []byte("zz"), []byte("zz"), []byte("aa"), []byte("aa"), []byte("aa")}},
		{"tie-arrival-order-irrelevant", 6, 2, [][]byte{[]byte("aa"), []byte("zz"), []byte("aa"), []byte("zz"), []byte("zz"), []byte("aa")}},
		{"empty-quorum", 4, 1, [][]byte{nil, {}, nil, []byte("x")}},
		{"all-empty", 4, 1, [][]byte{nil, nil, nil, nil}},
		{"empty-ties-nonempty", 4, 1, [][]byte{nil, nil, []byte("x"), []byte("x")}},
		{"prefix-sharing", 7, 2, [][]byte{[]byte("ab"), []byte("abc"), []byte("ab"), []byte("abc"), []byte("a"), []byte("abc"), []byte("ab")}},
		{"prefix-sharing-16k", 7, 2, [][]byte{big('p', "1"), big('p', "0"), big('p', ""), big('p', "0"), big('p', "1"), big('p', ""), big('p', "")}},
		{"zero-byte-ordering", 4, 1, [][]byte{{0}, {0, 0}, {0}, {0, 0}}},
		{"no-messages", 4, 1, nil},
		{"two-quorums-t-half", 4, 2, [][]byte{[]byte("y"), []byte("y"), []byte("x"), []byte("x")}},
		{"two-quorums-unequal", 5, 3, [][]byte{[]byte("y"), []byte("y"), []byte("y"), []byte("x"), []byte("x")}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkPayloadPrefix(t, c.n, c.t, c.in, prefixInbox(2, c.in))
		})
	}
	// An invalid echo does not use up its sender: senders 0 and 1 send
	// one of other bytes before their valid one, which the sorted-key
	// rule, fed the valid echoes only, counts.
	t.Run("invalid-echo-then-valid", func(t *testing.T) {
		in := [][]byte{[]byte("x"), []byte("x"), []byte("x"), []byte("y")}
		var in2 []sim.Message
		for i, msg := range prefixInbox(2, in) {
			if i < 2 {
				in2 = append(in2, sim.Message{From: i, Round: 2, Payload: TCPayloadEcho{Data: []byte("junk"), Valid: false}})
			}
			in2 = append(in2, msg)
		}
		checkPayloadPrefix(t, 4, 1, in, in2)
	})
}

// checkPayloadPrefix runs the prefix over one byte string per sender in
// round 1 and the round-2 inbox in2, whose valid echoes carry in, and
// compares both rounds with the sorted-key rule.
func checkPayloadPrefix(t *testing.T, n, tc int, in [][]byte, in2 []sim.Message) {
	t.Helper()
	m := newTCPrefixThird[[]byte, bytesDomain](n, tc, nil)
	sends := m.Deliver(1, prefixInbox(1, in))
	wantY, wantOK := refPrefixRound1(n, tc, in)
	if m.yOK != wantOK || (wantOK && !sameBytes(m.y, wantY)) {
		t.Errorf("round 1: y=%q ok=%t, sorted-key rule gives %q ok=%t", m.y, m.yOK, wantY, wantOK)
	}
	if echo := sends[0].Payload.(TCPayloadEcho); echo.Valid != wantOK || (wantOK && !sameBytes(echo.Data, wantY)) {
		t.Errorf("round 1 echoes %q valid=%t", echo.Data, echo.Valid)
	}
	m.Deliver(2, in2)
	want := refPrefixRound2(n, tc, in)
	if m.out.Bit != want.Bit || !sameBytes(m.out.Cand, want.Cand) {
		t.Errorf("round 2: bit=%d cand=%q, sorted-key rule gives bit=%d cand=%q", m.out.Bit, m.out.Cand, want.Bit, want.Cand)
	}
}

// TestPayloadPrefixFiltersLikeBefore: what never counted still does not
// — a sender's second message, the other round's class, an echo
// marked invalid.
func TestPayloadPrefixFiltersLikeBefore(t *testing.T) {
	m := newTCPrefixThird[[]byte, bytesDomain](4, 1, nil)
	x, y := []byte("x"), []byte("y")
	m.Deliver(1, []sim.Message{
		{From: 0, Payload: TCPayload{Data: x}},
		{From: 0, Payload: TCPayload{Data: x}},
		{From: 1, Payload: TCPayload{Data: x}},
		{From: 2, Payload: TCPayloadEcho{Data: x, Valid: true}},
		{From: 3, Payload: TCPayload{Data: y}},
	})
	if m.yOK {
		t.Errorf("round 1 counted a duplicate sender or an echo: y=%q", m.y)
	}
	m.Deliver(2, []sim.Message{
		{From: 0, Payload: TCPayloadEcho{Data: x, Valid: true}},
		{From: 0, Payload: TCPayloadEcho{Data: x, Valid: true}},
		{From: 1, Payload: TCPayloadEcho{Data: x, Valid: false}},
		{From: 2, Payload: TCPayload{Data: x}},
		{From: 3, Payload: TCPayloadEcho{Data: y, Valid: true}},
	})
	if m.out.Bit != 0 || !sameBytes(m.out.Cand, x) {
		t.Errorf("round 2: bit=%d cand=%q, want bit 0 and the tie broken to %q", m.out.Bit, m.out.Cand, x)
	}
}

// TestPayloadPrefixCopiesWhatItKeeps: delivered Data is only valid
// until Deliver returns (on the TCP path it sub-slices a frame the
// transport then releases), so overwriting it afterwards must not
// reach the echo the machine sends or the candidate it outputs —
// whether the machine copied the bytes or kept its own equal input.
func TestPayloadPrefixCopiesWhatItKeeps(t *testing.T) {
	const n, tc = 4, 1
	want := bytes.Repeat([]byte{7}, 1024)
	for _, input := range [][]byte{nil, append([]byte(nil), want...)} {
		for round := 1; round <= 2; round++ {
			m := newTCPrefixThird[[]byte, bytesDomain](n, tc, input)
			wire := make([][]byte, n)
			for i := range wire {
				wire[i] = append([]byte(nil), want...)
			}
			sends := m.Deliver(round, prefixInbox(round, wire))
			for i := range wire {
				for j := range wire[i] {
					wire[i][j] = 0xDB
				}
			}
			got := m.out.Cand
			if round == 1 {
				got = sends[0].Payload.(TCPayloadEcho).Data
			}
			if !bytes.Equal(got, want) {
				t.Errorf("input %d bytes, round %d: kept an alias of the delivered bytes", len(input), round)
			}
		}
	}
}

// TestPayloadPrefixRoundAllocations: a round of n identical 16 KiB
// messages allocates the one kept copy and small change — under twice
// the payload — where a count map built a 16 KiB key per message. Under
// pre-agreement, when the machine's own input already holds the bytes,
// it keeps the input and a round allocates under 1 KiB.
func TestPayloadPrefixRoundAllocations(t *testing.T) {
	const n, tc, size = 16, 5, 16 << 10
	data := make([][]byte, n)
	for i := range data {
		data[i] = bytes.Repeat([]byte{0x5A}, size)
	}
	perRound := func(input []byte, round int) uint64 {
		in := prefixInbox(round, data)
		m := newTCPrefixThird[[]byte, bytesDomain](n, tc, input)
		m.Deliver(round, in)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			m.Deliver(round, in)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	for round := 1; round <= 2; round++ {
		if got := perRound(nil, round); got < size || got >= 2*size {
			t.Errorf("round %d allocates %d B for %d identical %d-byte messages; want one kept copy, under %d B",
				round, got, n, size, 2*size)
		}
		if got := perRound(bytes.Clone(data[0]), round); got >= 1<<10 {
			t.Errorf("round %d allocates %d B when the input equals the %d-byte messages; want no copy, under 1 KiB",
				round, got, size)
		}
	}
}

// TestIdleProtocolPinsNothing: a payload protocol released with
// Reset(nil) after an execution holds none of the bytes it ran on — no
// input, candidate, decision or tallied payload — while the decision
// read before the release keeps its bytes.
func TestIdleProtocolPinsNothing(t *testing.T) {
	const n, tc, kappa = 4, 1, 2
	setup, err := NewSetup(n, tc, CoinIdeal, 3)
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte{7}, 100)
	inputs := [][]byte{input, input, input, input}
	proto, err := NewMultivaluedPayloadOneShot(setup, kappa, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := proto.Run(sim.Passive{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	decided := PayloadDecisions(res)
	if err := proto.Reset(nil); err != nil {
		t.Fatal(err)
	}
	for i, m := range proto.Machines {
		p := m.(*mvParty[[]byte, bytesDomain])
		if out, ok := p.Output(); ok || out != nil {
			t.Errorf("party %d: the idle chain still outputs %v", i, out)
		}
		pre := p.prefix
		if p.input != nil || p.cand != nil || pre.input != nil || pre.y != nil || pre.out.Cand != nil {
			t.Errorf("party %d: the idle protocol still holds an input or candidate", i)
		}
		for k, c := range pre.counts[:cap(pre.counts)] {
			if c.v != nil || c.count != 0 {
				t.Errorf("party %d: tally entry %d still holds %d bytes", i, k, len(c.v))
			}
		}
	}
	for i, d := range decided {
		if !bytes.Equal(d, input) {
			t.Errorf("party %d's decision read before the release changed", i)
		}
	}
}
