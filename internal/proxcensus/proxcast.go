package proxcensus

import (
	"proxcensus/internal/crypto/sig"
	"proxcensus/internal/quorum"
	"proxcensus/internal/sim"
)

// Proxcast (Appendix A, Lemma 6) is the single-sender version of
// Proxcensus: a dealer distributes a signed input and for s-2 further
// rounds every party forwards the set of valid dealer-signed pairs it
// has seen (at most two distinct pairs matter — two contradicting
// signatures already prove dealer misbehaviour). A party claims grade g
// for value z if its set was exactly the singleton {(z, σ)} at the end
// of 2g+1-b consecutive rounds (s = 2k+b). The protocol achieves s-slot
// Proxcast in s-1 rounds against t < n corruptions, improving on the
// M-gradecast of Garay et al.
//
// The player-replaceable variant for t < n/2 additionally requires the
// singleton pair to have been forwarded by at least n-t parties in each
// round after the first, which guarantees an honest forwarder per round
// even when every round is executed by a fresh committee.

// ProxcastPair is a dealer-signed value.
type ProxcastPair struct {
	Z   Value
	Sig sig.Signature
}

// ProxcastSet is the per-round payload: the sender's current set of
// valid dealer-signed pairs, capped at two entries.
type ProxcastSet struct {
	Pairs []ProxcastPair
}

var _ sim.Payload = ProxcastSet{}

// SigCount implements sim.Payload.
func (p ProxcastSet) SigCount() int { return len(p.Pairs) }

// ByteSize implements sim.Payload.
func (p ProxcastSet) ByteSize() int { return 8 + len(p.Pairs)*(8+sig.Size) }

// ProxcastMessage is the byte string the dealer signs for value z.
func ProxcastMessage(z Value) []byte { return tagValue("proxcast/", z) }

// ProxcastRounds returns the round budget s-1 for s-slot Proxcast.
func ProxcastRounds(s int) int { return s - 1 }

// ProxcastMachine is one party's s-slot Proxcast state machine; the
// dealer's machine additionally opens the protocol with its signed
// input.
type ProxcastMachine struct {
	n, t, s    int
	self       sim.PartyID
	dealer     sim.PartyID
	input      Value // meaningful on the dealer only
	dealerPK   *sig.PublicKey
	dealerSK   *sig.SecretKey // nil on non-dealers
	replayable bool           // player-replaceable n-t forwarding rule
	round      int

	// set is the current S, capped at two distinct pairs.
	set []ProxcastPair
	// singleRounds records, per protocol round, whether S was a
	// singleton at the round's end (and passed the player-replaceable
	// quota if enabled).
	singleRounds []bool
	singleValue  Value
}

var _ sim.Machine = (*ProxcastMachine)(nil)

// ProxcastConfig collects the constructor parameters of a Proxcast
// party.
type ProxcastConfig struct {
	N, T int
	// Slots is s; the protocol runs s-1 rounds.
	Slots int
	// Self is this party's ID; Dealer the sender's.
	Self, Dealer sim.PartyID
	// Input is the dealer's value (ignored on other parties).
	Input Value
	// DealerPK verifies dealer signatures; DealerSK must be set on the
	// dealer's machine only.
	DealerPK *sig.PublicKey
	DealerSK *sig.SecretKey
	// PlayerReplaceable enables the n-t forwarding quota (t < n/2).
	PlayerReplaceable bool
}

// NewProxcastMachine builds one party's Proxcast machine.
func NewProxcastMachine(cfg ProxcastConfig) *ProxcastMachine {
	return &ProxcastMachine{
		n:            cfg.N,
		t:            cfg.T,
		s:            cfg.Slots,
		self:         cfg.Self,
		dealer:       cfg.Dealer,
		input:        cfg.Input,
		dealerPK:     cfg.DealerPK,
		dealerSK:     cfg.DealerSK,
		replayable:   cfg.PlayerReplaceable,
		singleRounds: make([]bool, cfg.Slots), // indexed by round, 1..s-1
	}
}

// NewProxcastMachines builds every party's machine for one execution:
// party i runs cfg with Self = i, and only the dealer's machine keeps
// cfg.DealerSK.
func NewProxcastMachines(cfg ProxcastConfig) []sim.Machine {
	sk := cfg.DealerSK
	machines := make([]sim.Machine, cfg.N)
	for i := range machines {
		cfg.Self, cfg.DealerSK = i, nil
		if i == cfg.Dealer {
			cfg.DealerSK = sk
		}
		machines[i] = NewProxcastMachine(cfg)
	}
	return machines
}

// Rounds returns the protocol's round budget, s-1.
func (m *ProxcastMachine) Rounds() int { return ProxcastRounds(m.s) }

// Start implements sim.Machine: only the dealer speaks in round 1.
func (m *ProxcastMachine) Start() []sim.Send {
	if m.self != m.dealer || m.dealerSK == nil {
		return nil
	}
	pair := ProxcastPair{Z: m.input, Sig: sig.Sign(m.dealerSK, ProxcastMessage(m.input))}
	m.absorbPair(pair)
	return sim.BroadcastSend(ProxcastSet{Pairs: []ProxcastPair{pair}})
}

// Deliver implements sim.Machine.
func (m *ProxcastMachine) Deliver(round int, in []sim.Message) []sim.Send {
	if round > m.Rounds() {
		return nil
	}
	m.round = round

	// forwarders counts, per pair, the distinct senders who forwarded it
	// this round (for the player-replaceable quota).
	forwarders := make(map[ProxcastPair]map[sim.PartyID]bool)
	for _, msg := range in {
		p, ok := msg.Payload.(ProxcastSet)
		if !ok {
			continue
		}
		for _, pair := range p.Pairs {
			if !sig.Ver(m.dealerPK, ProxcastMessage(pair.Z), pair.Sig) {
				continue
			}
			m.absorbPair(pair)
			fw := forwarders[pair]
			if fw == nil {
				fw = make(map[sim.PartyID]bool)
				forwarders[pair] = fw
			}
			fw[msg.From] = true
		}
	}

	// Record the singleton status at this round's end.
	if len(m.set) == 1 {
		quotaOK := true
		if m.replayable && round > 1 {
			quotaOK = quorum.Reached(len(forwarders[m.set[0]]), m.n, m.t)
		}
		if quotaOK {
			m.singleRounds[round] = true
			m.singleValue = m.set[0].Z
		}
	}

	if round == m.Rounds() {
		return nil
	}
	// Re-send the current set (two pairs suffice to prove equivocation).
	if len(m.set) == 0 {
		return nil
	}
	pairs := make([]ProxcastPair, len(m.set))
	copy(pairs, m.set)
	return sim.BroadcastSend(ProxcastSet{Pairs: pairs})
}

// Output implements sim.Machine: grade g requires 2g+1-b consecutive
// singleton round-ends (b = s mod 2).
func (m *ProxcastMachine) Output() (any, bool) {
	if m.round < m.Rounds() {
		return nil, false
	}
	b := m.s % 2
	best := 0 // longest run of singleton round-ends
	run := 0
	for r := 1; r <= m.Rounds(); r++ {
		if m.singleRounds[r] {
			run++
			if run > best {
				best = run
			}
		} else {
			run = 0
		}
	}
	g := (best - 1 + b) / 2
	if best == 0 || g < 0 {
		return Result{Value: 0, Grade: 0}, true
	}
	if max := MaxGrade(m.s); g > max {
		g = max
	}
	if g == 0 && b == 1 {
		// Odd s: the grade-0 slot carries no value commitment.
		return Result{Value: 0, Grade: 0}, true
	}
	return Result{Value: m.singleValue, Grade: g}, true
}

// MaxProxcastPairs is the most pairs an honest ProxcastSet carries: two
// distinct dealer-signed pairs already prove equivocation.
const MaxProxcastPairs = 2

// absorbPair adds a valid dealer-signed pair to the set, keeping at most
// MaxProxcastPairs distinct pairs.
func (m *ProxcastMachine) absorbPair(pair ProxcastPair) {
	for _, p := range m.set {
		if p == pair {
			return
		}
	}
	if len(m.set) < MaxProxcastPairs {
		m.set = append(m.set, pair)
	}
}
