// Batched admission. AdmitBatch is the screen: it takes a round's
// messages in one call and screens them one by one in arrival order —
// checkPre's cheap stages, then the message's own signature check — so
// how a round is split into calls does not matter: one call with the
// whole round and one call per message give identical verdicts,
// identical Report counters and identical Evidence entries
// (batch_test.go holds that invariance). Every threshold share is
// verified exactly once, against the dealer's cached share key and the
// signed message sigMessage caches for its (class, value, instance).
package validate

import (
	"proxcensus/internal/coin"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/wire"
)

// Inbound is one decoded ingress message handed to AdmitBatch: the
// wire bytes, the decode result, and the claimed sender. On the TCP
// path Raw — and the Data of a payload-blob Payload — sub-slices a
// received frame the transport releases once the round's machine step
// is done, so both are valid for the round only. Per sender and round,
// AdmitBatch keeps the Raw of the sender's first message, for the
// duplicate check, and the Payload that opened each single-instance
// stream, for equivocation evidence; a sender's later distinct messages
// of the round are kept as digests. It reads a kept Raw or Payload only
// while its round lasts: later rounds never consult it, and the
// sender's first message of one overwrites it.
type Inbound struct {
	// From is the claimed sender address.
	From int
	// Raw is the payload's wire encoding; it may alias a frame. Its tag
	// byte is the class the screen judges the payload as.
	Raw []byte
	// Payload is the decoded payload, nil when decoding failed.
	Payload sim.Payload
	// Err is the decode error, nil on success.
	Err error
}

// msgCacheCap bounds the per-validator cache of signed-message
// encodings. Keys are domain-checked before the signature stage, so
// honest traffic needs a handful of entries; the cap only guards
// against pathological rule sets with unbounded instance spaces.
const msgCacheCap = 1024

// sigKey identifies one signed message: every share of a given class
// over the same values verifies against the same bytes.
type sigKey struct {
	class wire.Class
	a, b  int
}

// AdmitBatch screens one round batch and returns one verdict per
// message — true when the machine should see it — appending into the
// caller's verdicts slice (pass verdicts[:0] of a pooled slice for an
// allocation-free steady state). Rejections are counted, never fatal.
// It is the transport's one ingress screen: every node of every TCP
// execution calls it on each delivered round.
func (v *Validator) AdmitBatch(round int, in []Inbound, verdicts []bool) []bool {
	verdicts = verdicts[:0]
	v.mu.Lock()
	defer v.mu.Unlock()
	if round != v.round {
		// Round boundary: duplicate and equivocation streams are
		// per-round (the hub delivers each round's traffic as one batch).
		// A new stamp retires every sender slot at once.
		v.round = round
		v.stamp++
		clear(v.dup)
		clear(v.first)
	}

	for i := range in {
		m := &in[i]
		reason, ok := v.checkPre(round, m.From, m.Raw, m.Payload, m.Err)
		if ok && !v.signatureOK(m.From, m.Payload) {
			reason, ok = RejectSignature, false
		}
		if ok {
			v.rep.Admitted++
		} else {
			v.rep.Rejected[reason]++
		}
		verdicts = append(verdicts, ok)
	}
	return verdicts
}

// sigMessage returns the signed message for a share key, building and
// caching it on first use. The cache persists across rounds: vote
// messages recur every iteration, coin instances advance slowly, and
// the cap bounds adversarial growth.
func (v *Validator) sigMessage(key sigKey) []byte {
	if m, ok := v.msgCache[key]; ok {
		return m
	}
	var m []byte
	switch key.class {
	case wire.ClassLinearVote:
		m = proxcensus.LinearSigmaMessage(key.a)
	case wire.ClassLinearOmegaShare:
		m = proxcensus.LinearOmegaMessage(key.a)
	case wire.ClassQuadVote:
		m = proxcensus.QuadMessage(key.a, 1)
	case wire.ClassQuadOmegaShare:
		m = proxcensus.QuadMessage(key.a, key.b)
	case wire.ClassCoinShare:
		m = coin.InstanceMessage(v.rules.CoinDomain, key.a)
	}
	if len(v.msgCache) < msgCacheCap {
		if v.msgCache == nil {
			v.msgCache = make(map[sigKey][]byte)
		}
		v.msgCache[key] = m
	}
	return m
}
