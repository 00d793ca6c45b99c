// Package validate is the wire-ingress screening layer: it sits
// between the TCP transport's decoder and a party's protocol machine
// and checks the structure of every incoming payload at admission —
// sender-ID range, decode, expected payload type for the current
// protocol phase, value/grade domain, per-sender-per-round duplicate
// suppression, and equivocation detection.
//
// It verifies no signature. Shares, combined signatures, certificates
// and coin shares are checked by the machines that use them, as part of
// the protocol step (the sim.Machine contract: unexpected types, bad
// signatures and out-of-range values are ignored, never fatal), so each
// is checked once and the simulator, the conformance explorer and the
// TCP path run the same check. The validator changes no safety
// argument. What it adds is the production discipline the simulator
// never needed: malformed, misplaced, duplicate and equivocating
// traffic is stopped at the edge, and every rejection lands in a
// structured Report (counters by reason plus equivocation evidence
// pairs) that surfaces through transport.Report and the chaos logs.
// Rejections never error out an honest node.
//
// Scope: the validator screens what a single node can see on its own
// authenticated channels. Cross-receiver equivocation — one Byzantine
// sender telling different receivers different things — is invisible
// here by construction and remains the protocols' job (that is exactly
// the adversary of Theorem 1); see DESIGN.md "Threat model".
package validate

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync"

	"proxcensus/internal/ba"
	"proxcensus/internal/coin"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/wire"
)

// ClassSet is a bitmask of allowed wire classes for one protocol phase.
type ClassSet uint32

// Classes builds a set.
func Classes(cs ...wire.Class) ClassSet {
	var s ClassSet
	for _, c := range cs {
		s |= 1 << uint(c)
	}
	return s
}

// Has reports membership.
func (s ClassSet) Has(c wire.Class) bool { return s&(1<<uint(c)) != 0 }

// Reason classifies one rejection.
type Reason int

// Rejection reasons, in severity-agnostic canonical order.
const (
	// RejectSender: the claimed sender ID is outside [0, n).
	RejectSender Reason = iota
	// RejectMalformed: the payload bytes did not decode.
	RejectMalformed
	// RejectType: the payload class is not expected in this phase.
	RejectType
	// RejectDomain: a value, grade, instance or size is out of range.
	RejectDomain
	// RejectDuplicate: an identical (sender, payload) was already
	// admitted this round; the machine sees each logical message once.
	RejectDuplicate
	// RejectEquivocation: the sender already sent a DIFFERENT payload
	// of a single-instance class this round; evidence is recorded.
	RejectEquivocation

	numReasons
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case RejectSender:
		return "sender"
	case RejectMalformed:
		return "malformed"
	case RejectType:
		return "type"
	case RejectDomain:
		return "domain"
	case RejectDuplicate:
		return "duplicate"
	case RejectEquivocation:
		return "equivocation"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Evidence records one detected equivocation: two conflicting payloads
// of a single-instance class from the same sender in the same round.
type Evidence struct {
	// From is the equivocating sender, Round the round it struck.
	From, Round int
	// Class is the payload class both conflicting payloads share.
	Class wire.Class
	// First and Second render the conflicting payloads.
	First, Second string
}

// String implements fmt.Stringer.
func (e Evidence) String() string {
	return fmt.Sprintf("r%d node=%d %s: %s vs %s", e.Round, e.From, e.Class, e.First, e.Second)
}

// evidenceCap bounds the evidence kept per validator; a flooding
// equivocator must not grow the report without bound. Counters keep
// counting past the cap.
const evidenceCap = 32

// Report is the structured outcome of one node's ingress screening.
// The zero value is an empty report.
type Report struct {
	// Admitted counts payloads that passed every check.
	Admitted int
	// Rejected counts rejections by reason, indexed by Reason.
	Rejected [numReasons]int
	// Evidence holds up to evidenceCap equivocation pairs.
	Evidence []Evidence
}

// Rejections returns the count for one reason.
func (r Report) Rejections(reason Reason) int {
	if reason < 0 || reason >= numReasons {
		return 0
	}
	return r.Rejected[reason]
}

// TotalRejected sums all rejection counters.
func (r Report) TotalRejected() int {
	total := 0
	for _, c := range r.Rejected {
		total += c
	}
	return total
}

// Merge folds another report into this one (evidence capped).
func (r *Report) Merge(o Report) {
	r.Admitted += o.Admitted
	for i := range r.Rejected {
		r.Rejected[i] += o.Rejected[i]
	}
	for _, e := range o.Evidence {
		if len(r.Evidence) >= evidenceCap {
			break
		}
		r.Evidence = append(r.Evidence, e)
	}
}

// Summary renders a one-line digest: admitted count plus every nonzero
// rejection counter in canonical reason order.
func (r Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "admitted=%d rejected=%d", r.Admitted, r.TotalRejected())
	for reason := Reason(0); reason < numReasons; reason++ {
		if c := r.Rejected[reason]; c > 0 {
			fmt.Fprintf(&b, " %s=%d", reason, c)
		}
	}
	if len(r.Evidence) > 0 {
		fmt.Fprintf(&b, " evidence=%d", len(r.Evidence))
	}
	return b.String()
}

// singleInstance reports whether the protocol allows at most one
// payload of the class per sender per round, making any conflicting
// pair an equivocation. Multi-instance classes (Σ/Ω forwards, which
// may legally cover several values in one round) are exempt.
func singleInstance(c wire.Class) bool {
	switch c {
	case wire.ClassEcho, wire.ClassLinearVote, wire.ClassLinearOmegaShare,
		wire.ClassQuadVote, wire.ClassProxcastSet, wire.ClassCoinShare,
		wire.ClassTCValue, wire.ClassTCEcho, wire.ClassTCPayload, wire.ClassTCPayloadEcho:
		return true
	default:
		return false
	}
}

// subKey separates independent single-instance streams within a class:
// coin shares are one-per-instance, quad omega shares one-per-level.
func subKey(p sim.Payload) int {
	switch v := p.(type) {
	case coin.SharePayload:
		return v.K
	case proxcensus.QuadOmegaShare:
		return v.J
	default:
		return 0
	}
}

// uniKey identifies one single-instance stream.
type uniKey struct {
	from  int
	class wire.Class
	sub   int
}

// firstSeen is the stream a sender's slot opened first this round: its
// class and sub-key, and the payload admitted into it. The payload is
// kept so equivocation evidence can render it lazily — evidence strings
// are only built when a conflict actually materializes, so the screen's
// hot path never pays for formatting. Payloads are immutable by the
// sim.Machine contract, so deferred rendering produces the same string
// eager rendering would have. A payload blob's Data aliases the round's
// frame, so the payload is only ever read while its round lasts: a
// slot stamped for an earlier round is never consulted, and the
// sender's first message of a new round overwrites it.
type firstSeen struct {
	class   wire.Class // wire.ClassUnknown: no stream opened yet
	sub     int
	payload sim.Payload
}

// senderRound is what the screen keeps about one sender for the round
// its stamp names: the wire bytes of the sender's first message, which
// are all the duplicate check needs while the sender sends one message
// per round, and the sender's first single-instance stream. raw aliases
// the round's frame like the stream's payload does, and like it is only
// ever read while its round lasts.
type senderRound struct {
	stamp  uint64
	raw    []byte
	stream firstSeen
}

// dupKey identifies one exact (sender, payload bytes) pair.
type dupKey struct {
	from int
	hash [sha256.Size]byte
}

// Validator screens one node's ingress against a rule set. It is safe
// for concurrent use, though the transport drives it from a single
// receive loop. Per-sender state resets at each round boundary.
type Validator struct {
	rules Rules

	mu    sync.Mutex
	round int
	rep   Report

	// Per-round screen state, guarded by mu. senders holds one slot per
	// sender, valid while its stamp equals stamp, which advances at each
	// round boundary — so a new round costs no clearing. dup and first
	// spill whatever a slot cannot hold: a sender's second distinct
	// message and second stream of one round. A sender that sends one
	// message per round never reaches them, so they are built on first
	// use and cleared at round boundaries.
	senders []senderRound
	stamp   uint64
	dup     map[dupKey]struct{}
	first   map[uniKey]sim.Payload
}

// New builds a validator for the rule set. Its per-sender slots are
// sized for Rules.N here, so screening honest rounds allocates nothing
// afterwards.
func New(rules Rules) *Validator {
	return &Validator{
		rules:   rules.withDefaults(),
		senders: make([]senderRound, max(rules.N, 0)),
		stamp:   1,
	}
}

// Reset returns the validator to the state New leaves, keeping what it
// has grown: the transport screens one instance after another with one
// validator, so an instance's screen starts from no round, no sender
// slot, no spill, no counters and no evidence. round goes to 0, so the
// next instance's first round is a round boundary even when it equals
// the last round screened; the fresh stamp retires every sender slot.
// Slots drop the wire bytes and payload they kept, which alias a frame
// that has since been released. The report starts from zero, so one the
// caller has merged is never merged again.
func (v *Validator) Reset() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.round = 0
	v.stamp++
	for i := range v.senders {
		v.senders[i].raw = nil
		v.senders[i].stream.payload = nil
	}
	clear(v.dup)
	clear(v.first)
	v.rep = Report{}
}

// Report returns a snapshot of the screening outcome so far.
func (v *Validator) Report() Report {
	v.mu.Lock()
	defer v.mu.Unlock()
	rep := v.rep
	rep.Evidence = append([]Evidence(nil), v.rep.Evidence...)
	return rep
}

// check runs every screening stage in fixed order: sender, decode,
// phase type, domain, duplicate, equivocation.
func (v *Validator) check(round, from int, raw []byte, p sim.Payload, decodeErr error) (Reason, bool) {
	if from < 0 || from >= v.rules.N {
		return RejectSender, false
	}
	if decodeErr != nil || p == nil {
		return RejectMalformed, false
	}
	// The class is the tag the decoder has just read. Raw comes from the
	// caller, so it is read with a bounds and registry check.
	class := wire.EncodedClass(raw)
	if class == wire.ClassUnknown {
		return RejectMalformed, false
	}
	if allowed := v.rules.allowedAt(round); allowed != nil && !allowed.Has(class) {
		return RejectType, false
	}
	if !v.rules.inDomain(round, p) {
		return RejectDomain, false
	}
	s := &v.senders[from]
	if v.duplicate(s, from, raw) {
		return RejectDuplicate, false
	}
	if singleInstance(class) {
		if prev, conflict := v.openStream(s, from, class, subKey(p), p); conflict {
			// Same stream, different bytes: equivocation. The first
			// payload stands (matching the machines' first-wins rules);
			// the conflict is recorded as evidence.
			if len(v.rep.Evidence) < evidenceCap {
				v.rep.Evidence = append(v.rep.Evidence, Evidence{
					From: from, Round: round, Class: class,
					First: renderPayload(prev), Second: renderPayload(p),
				})
			}
			return RejectEquivocation, false
		}
	}
	return 0, true
}

// duplicate records that from sent a message with these wire bytes in
// the current round and reports whether it already had. The sender's
// slot holds its first message of the round, compared byte for byte, so
// a sender that sends one message per round is never hashed; only a
// sender's second distinct message of a round (a flood, an
// equivocation, or a phase that sends two, like Σ beside an Ω share)
// is digested into the dup spill.
func (v *Validator) duplicate(s *senderRound, from int, raw []byte) bool {
	if s.stamp != v.stamp {
		// The sender's first message this round opens its slot, which
		// drops whatever the slot held for an earlier round.
		*s = senderRound{stamp: v.stamp, raw: raw}
		return false
	}
	if bytes.Equal(s.raw, raw) {
		return true
	}
	key := dupKey{from: from, hash: sha256.Sum256(raw)}
	if _, seen := v.dup[key]; seen {
		return true
	}
	if v.dup == nil {
		v.dup = make(map[dupKey]struct{})
	}
	v.dup[key] = struct{}{}
	return false
}

// openStream admits p as the first payload of from's (class, sub)
// stream this round, or returns the payload that already opened it. The
// sender's slot holds its first stream of the round; a second stream in
// one round (quad Ω shares for several levels, or a flood) goes to the
// first spill. s must already be stamped for the round (duplicate does
// that).
func (v *Validator) openStream(s *senderRound, from int, class wire.Class, sub int, p sim.Payload) (sim.Payload, bool) {
	if s.stream.class == wire.ClassUnknown {
		s.stream = firstSeen{class: class, sub: sub, payload: p}
		return nil, false
	}
	if s.stream.class == class && s.stream.sub == sub {
		return s.stream.payload, true
	}
	key := uniKey{from: from, class: class, sub: sub}
	if prev, seen := v.first[key]; seen {
		return prev, true
	}
	if v.first == nil {
		v.first = make(map[uniKey]sim.Payload)
	}
	v.first[key] = p
	return nil, false
}

// renderPayload renders a payload compactly for evidence records.
func renderPayload(p sim.Payload) string {
	switch v := p.(type) {
	case proxcensus.EchoPayload:
		return fmt.Sprintf("echo(z=%d h=%d)", v.Z, v.H)
	case proxcensus.LinearVote:
		return fmt.Sprintf("vote(v=%d signer=%d)", v.V, v.Share.Signer)
	case proxcensus.LinearOmegaShare:
		return fmt.Sprintf("omega-share(v=%d signer=%d)", v.V, v.Share.Signer)
	case proxcensus.QuadVote:
		return fmt.Sprintf("quad-vote(v=%d signer=%d)", v.V, v.Share.Signer)
	case proxcensus.QuadOmegaShare:
		return fmt.Sprintf("quad-omega-share(v=%d j=%d signer=%d)", v.V, v.J, v.Share.Signer)
	case proxcensus.ProxcastSet:
		zs := make([]int, 0, len(v.Pairs))
		for _, pair := range v.Pairs {
			zs = append(zs, pair.Z)
		}
		sort.Ints(zs)
		return fmt.Sprintf("proxcast-set(z=%v)", zs)
	case coin.SharePayload:
		return fmt.Sprintf("coin-share(k=%d signer=%d)", v.K, v.Share.Signer)
	case ba.TCValue:
		return fmt.Sprintf("tc-value(v=%d)", v.V)
	case ba.TCEcho:
		return fmt.Sprintf("tc-echo(v=%d valid=%t)", v.V, v.Valid)
	case ba.TCPayload:
		// Content digest, not content: kilobyte payloads must not bloat
		// evidence records, and the hash is what equivocation proofs key on.
		return fmt.Sprintf("tc-payload(len=%d sha=%x)", len(v.Data), sha256.Sum256(v.Data))
	case ba.TCPayloadEcho:
		return fmt.Sprintf("tc-payload-echo(len=%d valid=%t sha=%x)", len(v.Data), v.Valid, sha256.Sum256(v.Data))
	default:
		return fmt.Sprintf("%T", p)
	}
}
