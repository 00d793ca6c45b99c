package proxcensus

import (
	"cmp"
	"slices"
	"strconv"

	"proxcensus/internal/quorum"
	"proxcensus/internal/sim"
)

// EchoPayload is the (z, h) pair exchanged by the t < n/3 expansion
// protocol (Section 3.3, protocol Prox_{2s-1}). It is unauthenticated —
// the protocol is perfectly secure and uses no signatures.
type EchoPayload struct {
	// Z is the sender's current Proxcensus value.
	Z Value
	// H is the sender's current grade.
	H int
}

var _ sim.Payload = EchoPayload{}

// SigCount implements sim.Payload.
func (EchoPayload) SigCount() int { return 0 }

// ByteSize implements sim.Payload: two varint-ish words.
func (EchoPayload) ByteSize() int { return 16 }

// Echo is one received (z, h) pair attributed to its sender.
type Echo struct {
	From sim.PartyID
	Z    Value
	H    int
}

// expandScratch is ExpandStep's working memory, sized for n senders at
// construction so a long-lived ExpandMachine allocates nothing per step.
// A step is begin, one add per echo, then decide.
type expandScratch struct {
	// seen[p] == gen marks that sender p's first echo of the current
	// step has been tallied; bumping gen clears every mark at once.
	seen []uint32
	gen  uint32
	// runs holds the tallied (value, grade) pairs with their counts, one
	// run per stretch of consecutive equal pairs — at most one per
	// sender, so n fits — then, sorted and collapsed in place, one run
	// per distinct pair.
	runs []gradeRun
	// maxG is the source grade range of the step being tallied and
	// zeroGrade its |S_0|, the tallied echoes with h == 0 of any value.
	maxG, zeroGrade int
}

// gradeRun counts the tallied echoes carrying (z, h).
type gradeRun struct {
	z Value
	h int
	c int
}

func newExpandScratch(n int) *expandScratch {
	n = max(n, 0)
	return &expandScratch{seen: make([]uint32, n), runs: make([]gradeRun, 0, n)}
}

// compareRuns orders runs by value, then grade; a package-level
// function so the per-step sort allocates no closure.
func compareRuns(a, b gradeRun) int {
	if a.z != b.z {
		return cmp.Compare(a.z, b.z)
	}
	return cmp.Compare(a.h, b.h)
}

// ExpandStep is the pure output-determination rule of protocol
// Prox_{2s-1} (Section 3.3): given each party's echoed Prox_s output,
// it computes this party's Prox_{2s-1} output. s is the *source* slot
// count; echoes out of the source grade range are ignored, as are all
// but the first echo per sender and echoes whose sender is outside
// [0, n) — which cannot occur in an execution, because the engine and
// the TCP hub stamp From with the authentic sender.
//
// The rule scans two consecutive source slots holding n-t echoes and
// grades by which of the two holds n-2t echoes, preferring the slot
// closer to the extreme ("in case of a tie, the upper slot is chosen").
func ExpandStep(n, t, s int, echoes []Echo) Result {
	return expandStep(n, t, s, echoes, newExpandScratch(n))
}

// expandStep is ExpandStep with caller-owned scratch sized for n.
func expandStep(n, t, s int, echoes []Echo, sc *expandScratch) Result {
	sc.begin(s)
	for _, e := range echoes {
		sc.add(e.From, e.Z, e.H)
	}
	return sc.decide(n, t, s)
}

// begin starts tallying a step whose echoes carry Prox_s pairs.
func (sc *expandScratch) begin(s int) {
	sc.gen++
	if sc.gen == 0 { // wrapped: stale marks could collide
		clear(sc.seen)
		sc.gen = 1
	}
	sc.runs = sc.runs[:0]
	sc.maxG = MaxGrade(s)
	sc.zeroGrade = 0
}

// add tallies one echo, unless its sender is outside [0, n) or already
// tallied this step, or its grade is outside the source range.
func (sc *expandScratch) add(from sim.PartyID, z Value, h int) {
	if from < 0 || from >= len(sc.seen) || sc.seen[from] == sc.gen || h < 0 || h > sc.maxG {
		return
	}
	sc.seen[from] = sc.gen
	if h == 0 {
		sc.zeroGrade++
	}
	// Consecutive equal pairs — the common case once honest parties
	// agree — extend the last run, leaving decide less to sort.
	if k := len(sc.runs) - 1; k >= 0 && sc.runs[k].z == z && sc.runs[k].h == h {
		sc.runs[k].c++
		return
	}
	sc.runs = append(sc.runs, gradeRun{z: z, h: h, c: 1})
}

// decide applies the output rule to the step's tally.
//
// The tally is a sort of the counted (value, grade) pairs collapsed into
// runs: grades are sparse — the one-shot protocol reaches source grade
// ranges of 2^κ — and Byzantine senders can fabricate any value, so
// neither dense per-grade arrays nor dense grade loops are affordable,
// while honest parties occupy at most two adjacent grades. The runs are
// ordered by value, then grade, so each value's grades form one
// ascending segment and the scan below visits exactly the candidates
// the rule needs, in its tie-breaking order.
func (sc *expandScratch) decide(n, t, s int) Result {
	maxG, zeroGrade := sc.maxG, sc.zeroGrade
	b := s % 2

	runs := sc.runs
	slices.SortFunc(runs, compareRuns)
	w := 0
	for _, r := range runs {
		if w > 0 && runs[w-1].z == r.z && runs[w-1].h == r.h {
			runs[w-1].c += r.c
			continue
		}
		runs[w] = r
		w++
	}
	runs = runs[:w]

	// One pass per value, ascending, evaluates the rule's three kinds of
	// candidate with strict improvement, so the winner is the first
	// candidate of the highest grade in (value, window) order. That is
	// the winner of the rule's three passes over all values in turn,
	// because the kinds' grades are disjoint and ordered: a pooled 1 <
	// every window grade (>= 2 for odd sources, which alone pool) < the
	// extreme grade.
	out := Result{Value: 0, Grade: 0}
	for len(runs) > 0 {
		end := 1
		for end < len(runs) && runs[end].z == runs[0].z {
			end++
		}
		seg := runs[:end] // this value's grades, ascending
		runs = runs[end:]
		z := seg[0].z

		// Odd source (b=1): the grade-0 slot is shared by all values, so
		// the first expanded grade pools S_0 with S_{z,1}.
		if b == 1 && out.Grade < 1 {
			c1 := 0
			for _, r := range seg {
				if r.h == 1 {
					c1 = r.c
				}
			}
			if quorum.Reached(zeroGrade+c1, n, t) && quorum.SuperMajority(c1, n, t) {
				out = Result{Value: z, Grade: 1}
			}
		}

		// Scan only the candidate windows [g, g+1] that contain an
		// observed grade — an empty window cannot accumulate n-t echoes
		// — in ascending g. Run k opens windows h-1 and h; last skips
		// the one the previous run already opened.
		last := b - 1
		for k, r := range seg {
			for g := r.h - 1; g <= r.h; g++ {
				if g <= last || g < b || g > maxG-1 {
					continue
				}
				last = g
				lo, hi := r.c, 0 // window [h, h+1]
				switch {
				case g < r.h: // window [h-1, h]: a run at h-1 would have opened it
					lo, hi = 0, r.c
				case k+1 < len(seg) && seg[k+1].h == g+1:
					hi = seg[k+1].c
				}
				if !quorum.Reached(lo+hi, n, t) {
					continue
				}
				switch {
				case quorum.SuperMajority(hi, n, t):
					if upper := 2*g + 2 - b; upper > out.Grade {
						out = Result{Value: z, Grade: upper}
					}
				case quorum.SuperMajority(lo, n, t):
					if lower := 2*g + 1 - b; lower > out.Grade {
						out = Result{Value: z, Grade: lower}
					}
				}
			}
		}

		// n-t echoes on the extreme source slot give the extreme target
		// grade, MaxGrade(2s-1).
		extreme := 0
		if r := seg[len(seg)-1]; r.h == maxG {
			extreme = r.c
		}
		if top := 2*maxG + 1 - b; quorum.Reached(extreme, n, t) && top > out.Grade {
			out = Result{Value: z, Grade: top}
		}
	}
	return out
}

// ExpandSlots returns the slot count of Prox_{2^r+1} built by r
// expansion rounds from the parties' raw inputs (Prox_2). Past
// MaxExpandRounds the count overflows an int.
func ExpandSlots(rounds int) int { return 1<<rounds + 1 }

// MaxExpandRounds is the most expansion rounds whose slot count
// 2^r+1 an int holds: 62 on 64-bit platforms.
const MaxExpandRounds = strconv.IntSize - 2

// ExpandMachine runs the r-round iterated expansion protocol achieving
// Prox_{2^r+1} for t < n/3 (Corollary 1). Round k echoes the party's
// current Prox_{2^{k-1}+1} pair and applies ExpandStep. The parties' raw
// inputs serve as the base case Prox_2 with grade 0.
type ExpandMachine struct {
	n, t, rounds int
	cur          Result
	sCur         int // slot count of the pair currently held
	round        int

	// scratch is the ExpandStep tally, sized at construction and reused
	// every round.
	scratch *expandScratch
}

var _ sim.Machine = (*ExpandMachine)(nil)

// NewExpandMachine builds one party's machine. rounds >= 0; with
// rounds = 0 the machine immediately outputs (input, 0) in Prox_2.
func NewExpandMachine(n, t, rounds int, input Value) *ExpandMachine {
	return &ExpandMachine{
		n:       n,
		t:       t,
		rounds:  rounds,
		cur:     Result{Value: input, Grade: 0},
		sCur:    2,
		scratch: newExpandScratch(n),
	}
}

// Reset rewinds the machine to what NewExpandMachine(n, t, rounds,
// input) leaves, for the n, t and rounds it was built with, keeping its
// tally scratch: the next execution allocates nothing for it.
func (m *ExpandMachine) Reset(input Value) {
	m.cur, m.sCur, m.round = Result{Value: input, Grade: 0}, 2, 0
}

// Rounds returns the protocol's round budget.
func (m *ExpandMachine) Rounds() int { return m.rounds }

// Slots returns the slot count of the final output.
func (m *ExpandMachine) Slots() int { return ExpandSlots(m.rounds) }

// Start implements sim.Machine.
func (m *ExpandMachine) Start() []sim.Send {
	if m.rounds == 0 {
		return nil
	}
	return sim.BroadcastSend(EchoPayload{Z: m.cur.Value, H: m.cur.Grade})
}

// Deliver implements sim.Machine.
func (m *ExpandMachine) Deliver(round int, in []sim.Message) []sim.Send {
	if round > m.rounds {
		return nil
	}
	// Tally straight from the inbox: ExpandStep's rule without building
	// its []Echo.
	m.scratch.begin(m.sCur)
	for _, msg := range in {
		if p, ok := msg.Payload.(EchoPayload); ok {
			m.scratch.add(msg.From, p.Z, p.H)
		}
	}
	m.cur = m.scratch.decide(m.n, m.t, m.sCur)
	m.sCur = 2*m.sCur - 1
	m.round = round
	if round == m.rounds {
		return nil
	}
	return sim.BroadcastSend(EchoPayload{Z: m.cur.Value, H: m.cur.Grade})
}

// Output implements sim.Machine.
func (m *ExpandMachine) Output() (any, bool) {
	if m.round < m.rounds {
		return nil, false
	}
	return m.cur, true
}
