package ba

import (
	"fmt"

	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/quorum"
	"proxcensus/internal/sim"
)

// Multivalued BA via the Turpin-Coan reduction [21]: a short prefix
// narrows the multivalued inputs to (candidate, bit) pairs such that all
// honest candidates that matter agree; a binary BA on the bit then
// decides between the common candidate and a default. Matching the
// paper's Section 3.5: +2 rounds for t < n/3, +3 rounds for t < n/2
// (the half-regime prefix needs a transferable proof, which costs the
// extra round).

// TCValue is the round-1 payload of the t < n/3 prefix: the sender's
// multivalued input.
type TCValue struct {
	V Value
}

var _ sim.Payload = TCValue{}

// SigCount implements sim.Payload.
func (TCValue) SigCount() int { return 0 }

// ByteSize implements sim.Payload.
func (TCValue) ByteSize() int { return 8 }

// TCEcho is the round-2 payload: the sender's filtered value, or
// "no value" when no input reached n-t support.
type TCEcho struct {
	V     Value
	Valid bool
}

var _ sim.Payload = TCEcho{}

// SigCount implements sim.Payload.
func (TCEcho) SigCount() int { return 0 }

// ByteSize implements sim.Payload.
func (TCEcho) ByteSize() int { return 9 }

// TCCandidate is the round-3 payload of the t < n/2 prefix: a candidate
// value with the transferable proof Ω that an honest party saw only it.
type TCCandidate struct {
	V     Value
	Omega threshsig.Signature
}

var _ sim.Payload = TCCandidate{}

// SigCount implements sim.Payload.
func (TCCandidate) SigCount() int { return 1 }

// ByteSize implements sim.Payload.
func (TCCandidate) ByteSize() int { return 8 + threshsig.Size }

// tcOutcome is the prefix stage output: the binary-BA input bit and the
// candidate to adopt if the BA decides 1.
type tcOutcome struct {
	Bit  Value
	Cand Value
}

// tcPrefixThird is the 2-round Turpin-Coan prefix for t < n/3. Each
// round counts every sender's first message of the round's class (in
// round 2 its first valid echo) into tally, scratch sized for n senders
// at construction, so neither round allocates for its count.
type tcPrefixThird struct {
	n, t  int
	input Value
	round int
	y     Value
	yOK   bool
	out   tcOutcome
	tally []valueCount
}

var _ sim.Machine = (*tcPrefixThird)(nil)

func newTCPrefixThird(n, t int, input Value) *tcPrefixThird {
	return &tcPrefixThird{n: n, t: t, input: input, tally: make([]valueCount, 0, max(n, 0))}
}

// valueCount is one distinct value of a prefix round and how many
// senders sent it.
type valueCount struct {
	v     Value
	count int
}

// tallyValue counts v into tally: one comparison per distinct value and
// no allocation while tally has room, which n senders never outgrow.
//
//lint:hotpath
func tallyValue(tally []valueCount, v Value) []valueCount {
	for i := range tally {
		if tally[i].v == v {
			tally[i].count++
			return tally
		}
	}
	return append(tally, valueCount{v: v, count: 1})
}

// senderSetWords is the stack bitset of a senderSet: one bit per sender
// ID below 1024.
const senderSetWords = 16

// senderSet records which senders a prefix round has counted, so each
// counts once. IDs the bitset covers — every sender of an execution up
// to n = 1024, since the engine and the hub stamp From — take a bit;
// any other ID, which only larger n or a hand-built inbox produces, goes
// to a map built on first use. The zero value is empty and lives on the
// caller's stack.
type senderSet struct {
	bits  [senderSetWords]uint64
	spill map[sim.PartyID]bool
}

// add marks from and reports whether it was unmarked.
//
//lint:hotpath
func (s *senderSet) add(from sim.PartyID) bool {
	if from >= 0 && from < senderSetWords*64 {
		word, bit := from>>6, uint64(1)<<uint(from&63)
		if s.bits[word]&bit != 0 {
			return false
		}
		s.bits[word] |= bit
		return true
	}
	if s.spill[from] {
		return false
	}
	if s.spill == nil {
		//lint:hotpath cold path: IDs past the bitset need n > 1024 or a hand-built inbox
		s.spill = make(map[sim.PartyID]bool)
	}
	s.spill[from] = true
	return true
}

// Start implements sim.Machine.
func (m *tcPrefixThird) Start() []sim.Send {
	return sim.BroadcastSend(TCValue{V: m.input})
}

// Deliver implements sim.Machine.
func (m *tcPrefixThird) Deliver(round int, in []sim.Message) []sim.Send {
	m.round = round
	switch round {
	case 1:
		var seen senderSet
		m.tally = m.tally[:0]
		for _, msg := range in {
			p, ok := msg.Payload.(TCValue)
			if !ok || !seen.add(msg.From) {
				continue
			}
			m.tally = tallyValue(m.tally, p.V)
		}
		// The smallest value with n-t support.
		m.yOK = false
		for _, c := range m.tally {
			if quorum.Reached(c.count, m.n, m.t) && (!m.yOK || c.v < m.y) {
				m.y, m.yOK = c.v, true
			}
		}
		return sim.BroadcastSend(TCEcho{V: m.y, Valid: m.yOK})
	case 2:
		var seen senderSet
		m.tally = m.tally[:0]
		for _, msg := range in {
			// An invalid echo does not use up its sender's slot.
			p, ok := msg.Payload.(TCEcho)
			if !ok || !p.Valid || !seen.add(msg.From) {
				continue
			}
			m.tally = tallyValue(m.tally, p.V)
		}
		// The most-echoed value, ties to the smallest.
		var best valueCount
		for _, c := range m.tally {
			if c.count > best.count || (c.count == best.count && c.v < best.v) {
				best = c
			}
		}
		bit := Value(0)
		if quorum.Reached(best.count, m.n, m.t) {
			bit = 1
		}
		m.out = tcOutcome{Bit: bit, Cand: best.v}
	}
	return nil
}

// Output implements sim.Machine.
func (m *tcPrefixThird) Output() (any, bool) {
	if m.round < 2 {
		return nil, false
	}
	return m.out, true
}

// tcPrefixHalf is the 3-round Turpin-Coan prefix for t < n/2: a 2-round
// Prox_3 (the linear protocol with r=2) on the multivalued inputs,
// followed by one round in which graded parties broadcast their value
// with the proof Ω. Any valid Ω pins the unique adoptable candidate.
type tcPrefixHalf struct {
	n, t  int
	pk    *threshsig.PublicKey
	inner *proxcensus.LinearMachine
	round int
	out   tcOutcome
}

var _ sim.Machine = (*tcPrefixHalf)(nil)

func newTCPrefixHalf(n, t int, input Value, pk *threshsig.PublicKey, sk *threshsig.SecretKey) *tcPrefixHalf {
	return &tcPrefixHalf{
		n: n, t: t, pk: pk,
		inner: proxcensus.NewLinearMachine(n, t, 2, input, pk, sk),
	}
}

// Start implements sim.Machine.
func (m *tcPrefixHalf) Start() []sim.Send { return m.inner.Start() }

// Deliver implements sim.Machine.
func (m *tcPrefixHalf) Deliver(round int, in []sim.Message) []sim.Send {
	m.round = round
	switch round {
	case 1:
		return m.inner.Deliver(round, in)
	case 2:
		m.inner.Deliver(round, in)
		out, ok := m.inner.Output()
		res, isRes := out.(proxcensus.Result)
		if !ok || !isRes || res.Grade < 1 {
			return nil
		}
		m.out = tcOutcome{Bit: 1, Cand: res.Value}
		omega, err := m.inner.OmegaProof(res.Value)
		if err != nil {
			// Grade >= 1 implies the proof is held; defensive only.
			return nil
		}
		return sim.BroadcastSend(TCCandidate{V: res.Value, Omega: omega})
	case 3:
		// Adopt any proven candidate; all valid proofs name one value.
		for _, msg := range in {
			p, ok := msg.Payload.(TCCandidate)
			if !ok {
				continue
			}
			if !threshsig.Ver(m.pk, proxcensus.LinearOmegaMessage(p.V), p.Omega) {
				continue
			}
			if m.out.Bit == 0 {
				m.out.Cand = p.V
			}
		}
	}
	return nil
}

// Output implements sim.Machine.
func (m *tcPrefixHalf) Output() (any, bool) {
	if m.round < 3 {
		return nil, false
	}
	return m.out, true
}

// MultivaluedOneShotRounds returns κ+3: the κ+1-round binary one-shot
// protocol plus the 2-round prefix.
func MultivaluedOneShotRounds(kappa int) int { return OneShotRounds(kappa) + 2 }

// NewMultivaluedOneShot builds multivalued BA for t < n/3 over any int
// domain: the 2-round Turpin-Coan prefix followed by the binary
// one-shot protocol. If the binary decision is 0, parties output
// defaultValue.
func NewMultivaluedOneShot(setup *Setup, kappa int, inputs []Value, defaultValue Value) (*Protocol, error) {
	if err := checkInputs(setup, kappa, inputs); err != nil {
		return nil, err
	}
	if !quorum.TolerateThird(setup.N, setup.T) {
		return nil, fmt.Errorf("ba: multivalued one-shot needs t < n/3, got n=%d t=%d", setup.N, setup.T)
	}
	slots := proxcensus.ExpandSlots(kappa)
	comps, oracle := setup.CoinComponents(slots-1, "mv-oneshot")
	machines := make([]sim.Machine, setup.N)
	for i := range machines {
		party := i
		input := inputs[i]
		var cand Value
		machines[i] = sim.NewChain([]sim.Stage{
			{Rounds: 2, New: func(any) sim.Machine {
				return newTCPrefixThird(setup.N, setup.T, input)
			}},
			{Rounds: OneShotRounds(kappa), New: func(prev any) sim.Machine {
				out := prev.(tcOutcome)
				cand = out.Cand
				return NewIterMachine(IterConfig{
					Slots:      slots,
					ProxRounds: kappa,
					Prox:       proxcensus.NewExpandMachine(setup.N, setup.T, kappa, out.Bit),
					Coin:       comps[party],
				})
			}},
			{Rounds: 0, New: func(prev any) sim.Machine {
				if prev.(Value) == 1 {
					return sim.NewFunc(cand)
				}
				return sim.NewFunc(defaultValue)
			}},
		})
	}
	return &Protocol{
		Name: "multivalued-oneshot-n3", N: setup.N, T: setup.T,
		Rounds: MultivaluedOneShotRounds(kappa), Machines: machines, Oracle: oracle,
	}, nil
}

// MultivaluedHalfRounds returns 3κ/2+3: the half-regime binary protocol
// plus the 3-round prefix.
func MultivaluedHalfRounds(kappa int) int { return HalfRounds(kappa) + 3 }

// NewMultivaluedHalf builds multivalued BA for t < n/2: the 3-round
// proof-carrying Turpin-Coan prefix followed by the binary 3κ/2-round
// protocol of Corollary 2.
func NewMultivaluedHalf(setup *Setup, kappa int, inputs []Value, defaultValue Value) (*Protocol, error) {
	if err := checkInputs(setup, kappa, inputs); err != nil {
		return nil, err
	}
	if !quorum.TolerateHalf(setup.N, setup.T) {
		return nil, fmt.Errorf("ba: multivalued half needs t < n/2, got n=%d t=%d", setup.N, setup.T)
	}
	comps, oracle := setup.CoinComponents(4, "mv-half")
	iterRounds := IterConfig{ProxRounds: 3, Parallel: true}.Rounds()
	iters := halfIterations(kappa, 5)
	machines := make([]sim.Machine, setup.N)
	for i := range machines {
		party := i
		input := inputs[i]
		var cand Value
		machines[i] = sim.NewChain([]sim.Stage{
			{Rounds: 3, New: func(any) sim.Machine {
				return newTCPrefixHalf(setup.N, setup.T, input, setup.ProxPK, setup.ProxSKs[party])
			}},
			{Rounds: iters * iterRounds, New: func(prev any) sim.Machine {
				out := prev.(tcOutcome)
				cand = out.Cand
				return NewIterChain(iters, iterRounds, out.Bit, func(iter int, in Value) *IterMachine {
					return NewIterMachine(IterConfig{
						Slots:      5,
						ProxRounds: 3,
						Prox:       proxcensus.NewLinearMachine(setup.N, setup.T, 3, in, setup.ProxPK, setup.ProxSKs[party]),
						Coin:       comps[party],
						Instance:   iter,
						Parallel:   true,
					})
				})
			}},
			{Rounds: 0, New: func(prev any) sim.Machine {
				if prev.(Value) == 1 {
					return sim.NewFunc(cand)
				}
				return sim.NewFunc(defaultValue)
			}},
		})
	}
	return &Protocol{
		Name: "multivalued-half-n2", N: setup.N, T: setup.T,
		Rounds: MultivaluedHalfRounds(kappa), Machines: machines, Oracle: oracle,
	}, nil
}
