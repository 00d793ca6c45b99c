package sim

// Stage is one fixed-round phase of a composed protocol.
type Stage struct {
	// Rounds is the stage's round budget. A zero-round stage is a pure
	// transformation: its machine's Output is read immediately.
	Rounds int
	// New builds the stage machine from the previous stage's output
	// (nil for the first stage).
	New func(prev any) Machine
}

// ChainRounds returns the total round budget of a stage sequence.
func ChainRounds(stages []Stage) int {
	total := 0
	for _, s := range stages {
		total += s.Rounds
	}
	return total
}

// Chain sequentially composes fixed-round machines: stage k+1 is
// constructed from stage k's output and sees only its own round window.
// Deliver's round argument is the stage's local round, starting at 1 in
// every window; the inbox is handed on as the engine delivered it, with
// each Message.Round still the global round. Fixed-round protocols
// compose without any termination coordination — this is the
// simultaneous-termination advantage of Monte-Carlo-style BA the paper
// highlights (Section 1).
type Chain struct {
	stages []Stage
	idx    int
	cur    Machine
	offset int // global round at which the current stage's window starts
	done   bool
	out    any
}

var _ Machine = (*Chain)(nil)

// NewChain builds a chained machine. Stages must be non-empty.
func NewChain(stages []Stage) *Chain {
	return &Chain{stages: stages, idx: -1}
}

// Reset rewinds the chain to what NewChain leaves: no stage entered,
// no output, the stages kept. Starting it again calls each stage's New
// anew, so stage constructors that reuse their machines run the chain
// again without building any; the chain drops its references to the
// last run's machine and output.
func (c *Chain) Reset() {
	*c = Chain{stages: c.stages, idx: -1}
}

// Start implements Machine.
func (c *Chain) Start() []Send {
	return c.advance(0, nil)
}

// Deliver implements Machine.
func (c *Chain) Deliver(round int, in []Message) []Send {
	if c.done || c.cur == nil {
		return nil
	}
	rel := round - c.offset
	sends := c.cur.Deliver(rel, in)
	if rel >= c.stages[c.idx].Rounds {
		// The stage's window is over; its trailing sends (if any) fall
		// outside the window and are dropped in favour of the next
		// stage's opening messages.
		out, ok := c.cur.Output()
		if !ok {
			return nil
		}
		return c.advance(round, out)
	}
	return sends
}

// Output implements Machine.
func (c *Chain) Output() (any, bool) {
	if c.done {
		return c.out, true
	}
	if c.cur == nil {
		return nil, false
	}
	return c.cur.Output()
}

// advance moves to the next stage (skipping zero-round stages by
// evaluating them immediately) and returns the new stage's opening
// sends. prev is the previous stage's output; round is the global round
// just completed.
func (c *Chain) advance(round int, prev any) []Send {
	for {
		c.idx++
		if c.idx >= len(c.stages) {
			c.done = true
			c.out = prev
			return nil
		}
		st := c.stages[c.idx]
		c.cur = st.New(prev)
		c.offset = round
		if st.Rounds > 0 {
			return c.cur.Start()
		}
		out, ok := c.cur.Output()
		if !ok {
			// A zero-round stage must produce output immediately;
			// treat failure as no further progress.
			c.done = true
			c.out = nil
			return nil
		}
		prev = out
	}
}

// Func wraps a pure function as a zero-round stage machine.
type Func struct {
	out any
}

var _ Machine = (*Func)(nil)

// NewFunc builds a zero-round machine that outputs out.
func NewFunc(out any) *Func { return &Func{out: out} }

// Start implements Machine.
func (f *Func) Start() []Send { return nil }

// Deliver implements Machine.
func (f *Func) Deliver(int, []Message) []Send { return nil }

// Output implements Machine.
func (f *Func) Output() (any, bool) { return f.out, true }
