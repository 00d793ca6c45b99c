package ba

import (
	"fmt"

	"proxcensus/internal/coin"
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
type tcOutcome[T any] struct {
	Bit  Value
	Cand T
}

// tcDomain is the value domain a tcPrefixThird runs over, implemented
// by a zero-size type: valueDomain for ints, bytesDomain for payloads.
type tcDomain[T any] interface {
	// msg is what round r broadcasts: the input in round 1, the
	// n-t-supported candidate in round 2 ("no value" unless valid).
	msg(round int, v T, valid bool) sim.Payload
	// read returns the value p carries if p is round r's class, and in
	// round 2 a valid echo.
	read(round int, p sim.Payload) (v T, ok bool)
	equal(a, b T) bool
	// less is the tie-break order: both rounds prefer the smaller value.
	less(a, b T) bool
	// own returns a value equal to v that outlives Deliver — which a
	// delivered v need not — reusing y or input when equal to v.
	own(v, y, input T) T
}

// valueDomain is the int domain: TCValue and TCEcho on the wire, values
// owned by copy.
type valueDomain struct{}

func (valueDomain) msg(round int, v Value, valid bool) sim.Payload {
	if round == 1 {
		return TCValue{V: v}
	}
	return TCEcho{V: v, Valid: valid}
}

func (valueDomain) read(round int, p sim.Payload) (Value, bool) {
	if round == 1 {
		m, ok := p.(TCValue)
		return m.V, ok
	}
	m, ok := p.(TCEcho)
	return m.V, ok && m.Valid
}

func (valueDomain) equal(a, b Value) bool   { return a == b }
func (valueDomain) less(a, b Value) bool    { return a < b }
func (valueDomain) own(v, _, _ Value) Value { return v }

// tcPrefixThird is the 2-round Turpin-Coan prefix for t < n/3 over the
// value domain D. Each round counts every sender's first message of the
// round's class (in round 2 its first valid echo) into counts, scratch
// sized for n senders at construction, so neither round allocates for
// its count. Delivered values are compared in place; the one candidate
// a round keeps goes through D.own. The rules — quorums, first per
// sender, ties to the smaller value — are written once for every
// domain, so the bit fed to the binary core is the same in both domains
// under any order-preserving injection between them.
type tcPrefixThird[T any, D tcDomain[T]] struct {
	d      D
	n, t   int
	input  T
	round  int
	y      T
	yOK    bool
	out    tcOutcome[T]
	counts []tcCount[T]
}

func newTCPrefixThird[T any, D tcDomain[T]](n, t int, input T) *tcPrefixThird[T, D] {
	return &tcPrefixThird[T, D]{n: n, t: t, input: input, counts: make([]tcCount[T], 0, max(n, 0))}
}

// reset rewinds the prefix to what newTCPrefixThird(n, t, input) leaves,
// keeping its tally scratch, whose entries it clears: they may alias a
// released frame.
func (m *tcPrefixThird[T, D]) reset(input T) {
	clear(m.counts[:cap(m.counts)])
	*m = tcPrefixThird[T, D]{n: m.n, t: m.t, input: input, counts: m.counts[:0]}
}

// tcCount is one distinct value of a prefix round and how many senders
// sent it. v may alias the delivered message, so counts live no longer
// than the Deliver call that built them.
type tcCount[T any] struct {
	v     T
	count int
}

// tally recounts round r's inbox into m.counts: each sender's first
// message of the round's class counts once, an invalid echo does not use
// up its sender's slot, and a value already counted costs one comparison
// per distinct value and no allocation — n senders never outgrow the
// scratch.
func (m *tcPrefixThird[T, D]) tally(round int, in []sim.Message) {
	var seen senderSet
	m.counts = m.counts[:0]
	for _, msg := range in {
		v, ok := m.d.read(round, msg.Payload)
		if !ok || !seen.add(msg.From) {
			continue
		}
		i := 0
		for i < len(m.counts) && !m.d.equal(m.counts[i].v, v) {
			i++
		}
		if i < len(m.counts) {
			m.counts[i].count++
		} else {
			m.counts = append(m.counts, tcCount[T]{v: v, count: 1})
		}
	}
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
		s.spill = make(map[sim.PartyID]bool)
	}
	s.spill[from] = true
	return true
}

// Start implements sim.Machine.
func (m *tcPrefixThird[T, D]) Start() []sim.Send {
	return sim.BroadcastSend(m.d.msg(1, m.input, true))
}

// Deliver implements sim.Machine.
func (m *tcPrefixThird[T, D]) Deliver(round int, in []sim.Message) []sim.Send {
	m.round = round
	switch round {
	case 1:
		m.tally(1, in)
		// The smallest value with n-t support.
		var y *tcCount[T]
		for i := range m.counts {
			if c := &m.counts[i]; quorum.Reached(c.count, m.n, m.t) && (y == nil || m.d.less(c.v, y.v)) {
				y = c
			}
		}
		var none T
		m.y, m.yOK = none, y != nil
		if m.yOK {
			m.y = m.d.own(y.v, m.y, m.input)
		}
		return sim.BroadcastSend(m.d.msg(2, m.y, m.yOK))
	case 2:
		m.tally(2, in)
		// The most-echoed value, ties to the smallest.
		var best tcCount[T]
		for _, c := range m.counts {
			if c.count > best.count || (c.count == best.count && m.d.less(c.v, best.v)) {
				best = c
			}
		}
		m.out = tcOutcome[T]{}
		if best.count > 0 {
			m.out.Cand = m.d.own(best.v, m.y, m.input)
		}
		if quorum.Reached(best.count, m.n, m.t) {
			m.out.Bit = 1
		}
	}
	return nil
}

// Output implements sim.Machine.
func (m *tcPrefixThird[T, D]) Output() (any, bool) {
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
	out   tcOutcome[Value]
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
		m.out = tcOutcome[Value]{Bit: 1, Cand: res.Value}
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
	return newMultivaluedThird[Value, valueDomain]("multivalued-oneshot-n3", setup, kappa, inputs, defaultValue)
}

// newMultivaluedThird builds multivalued BA for t < n/3 over the value
// domain D: the 2-round Turpin-Coan prefix, then the κ+1-round binary
// one-shot core, then the prefix's candidate if the core decides 1 and
// defaultValue if it decides 0. Every domain flips its coins in
// MultivaluedCoinDomain, so under one setup the digest and payload
// families flip byte-identical coins. Each party's machine is an
// mvParty, so Protocol.Reset can run the same machines again.
func newMultivaluedThird[T any, D tcDomain[T]](name string, setup *Setup, kappa int, inputs []T, defaultValue T) (*Protocol, error) {
	if err := checkExpandInputs(setup, kappa, inputs); err != nil {
		return nil, err
	}
	if !quorum.TolerateThird(setup.N, setup.T) {
		return nil, fmt.Errorf("ba: %s needs t < n/3, got n=%d t=%d", name, setup.N, setup.T)
	}
	slots := proxcensus.ExpandSlots(kappa)
	comps := setup.CoinComponents(slots-1, MultivaluedCoinDomain)
	machines := make([]sim.Machine, setup.N)
	for i := range machines {
		p := &mvParty[T, D]{setup: setup, kappa: kappa, coin: comps[i], def: defaultValue, input: inputs[i]}
		p.Chain = sim.NewChain([]sim.Stage{
			{Rounds: 2, New: p.prefixStage},
			{Rounds: OneShotRounds(kappa), New: p.coreStage},
			{Rounds: 0, New: p.outputStage},
		})
		machines[i] = p
	}
	return &Protocol{
		Name: name, N: setup.N, T: setup.T,
		Rounds: MultivaluedOneShotRounds(kappa), Machines: machines,
	}, nil
}

// mvParty is one party's machine of the t < n/3 multivalued protocol:
// the chain of its three stages, and the stage machines, which the
// stage constructors build the first time the chain enters a stage and
// reuse, reset, every time after. One family implementation serves a
// single execution and a run of them alike.
type mvParty[T any, D tcDomain[T]] struct {
	*sim.Chain
	setup *Setup
	kappa int
	coin  coin.Component
	def   T

	input T
	// cand is the prefix's candidate, decided if the core decides 1.
	cand T

	prefix *tcPrefixThird[T, D]
	iter   *IterMachine
	prox   *proxcensus.ExpandMachine
}

// prefixStage enters the Turpin-Coan prefix. A prefix built earlier was
// already reset with this execution's input by reset.
func (p *mvParty[T, D]) prefixStage(any) sim.Machine {
	if p.prefix == nil {
		p.prefix = newTCPrefixThird[T, D](p.setup.N, p.setup.T, p.input)
	}
	return p.prefix
}

// coreStage enters the binary one-shot core on the prefix's bit.
func (p *mvParty[T, D]) coreStage(prev any) sim.Machine {
	out := prev.(tcOutcome[T])
	p.cand = out.Cand
	if p.iter == nil {
		p.prox = proxcensus.NewExpandMachine(p.setup.N, p.setup.T, p.kappa, out.Bit)
		p.iter = NewIterMachine(IterConfig{
			Slots:      proxcensus.ExpandSlots(p.kappa),
			ProxRounds: p.kappa,
			Prox:       p.prox,
			Coin:       p.coin,
		})
		return p.iter
	}
	p.prox.Reset(out.Bit)
	p.iter.reset()
	return p.iter
}

// outputStage decides the candidate or the default.
func (p *mvParty[T, D]) outputStage(prev any) sim.Machine {
	if prev.(Value) == 1 {
		return sim.NewFunc(p.cand)
	}
	return sim.NewFunc(p.def)
}

// reset implements resetter: it rewinds the chain and the prefix to
// what newMultivaluedThird leaves, with party i's entry of inputs as
// the input, or with none when inputs is nil. Either way the party
// drops every input, candidate and delivered payload of the last
// execution. It reports false, changing nothing, if inputs is not a
// []T.
func (p *mvParty[T, D]) reset(i int, inputs any) bool {
	var input T
	if inputs != nil {
		in, ok := inputs.([]T)
		if !ok {
			return false
		}
		input = in[i]
	}
	var none T
	p.input, p.cand = input, none
	p.Chain.Reset()
	if p.prefix != nil {
		p.prefix.reset(input)
	}
	return true
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
	comps := setup.CoinComponents(4, "mv-half")
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
				out := prev.(tcOutcome[Value])
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
		Rounds: MultivaluedHalfRounds(kappa), Machines: machines,
	}, nil
}
