// Batched admission. AdmitBatch is the screen: it takes a round's
// messages in one call and screens them one by one in arrival order
// through check's structural stages, so how a round is split into calls
// does not matter: one call with the whole round and one call per
// message give identical verdicts, identical Report counters and
// identical Evidence entries (batch_test.go holds that invariance). It
// verifies no signature: every share, signature and certificate is
// verified once, by the machine whose protocol step uses it.
package validate

import "proxcensus/internal/sim"

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
		reason, ok := v.check(round, m.From, m.Raw, m.Payload, m.Err)
		if ok {
			v.rep.Admitted++
		} else {
			v.rep.Rejected[reason]++
		}
		verdicts = append(verdicts, ok)
	}
	return verdicts
}
