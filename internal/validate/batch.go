// Batched admission. AdmitBatch is the screen: it takes a round's
// messages in one call, and how a round is split into calls does not
// matter — one call with the whole round and one call per message give
// identical verdicts, identical Report counters and identical Evidence
// entries (batch_test.go holds that invariance). It rests on the
// pipeline order checkPre documents — signature verification is the
// LAST stage, and all per-round state (duplicate set, first-seen
// streams, evidence) is updated by the stages BEFORE it. AdmitBatch
// therefore runs those cheap stages for every message in arrival
// order, defers only the signature stage, and settles it grouped: all
// shares contributed against one common (class, value, instance)
// message verify in a single threshsig.VerBatch pass over cached keys.
// A failed batch falls back to per-share verification so one Byzantine
// share never poisons the honest senders in its group.
package validate

import (
	"crypto/sha256"

	"proxcensus/internal/coin"
	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// Inbound is one decoded ingress message handed to AdmitBatch: the
// wire bytes, the decode result, and the claimed sender. On the TCP
// path Raw — and the Data of a payload-blob Payload — sub-slices a
// received frame the transport releases once the round's machine step
// is done, so both are valid for the round only. Per sender and round,
// AdmitBatch keeps digests of Raw, never the bytes, and the Payload
// that opened each single-instance stream, for equivocation evidence.
// It reads such a Payload only while its round lasts: later rounds
// never consult it, and the sender's first message of one overwrites it.
type Inbound struct {
	// From is the claimed sender address.
	From int
	// Raw is the payload's wire encoding; it may alias a frame.
	Raw []byte
	// Payload is the decoded payload, nil when decoding failed.
	Payload sim.Payload
	// Err is the decode error, nil on success.
	Err error
}

// digestMemo carries the last raw-bytes digest across one batch pass.
type digestMemo struct {
	raw   []byte
	hash  [sha256.Size]byte
	valid bool
}

// msgCacheCap bounds the per-validator cache of signed-message
// encodings. Keys are domain-checked before the signature stage, so
// honest traffic needs a handful of entries; the cap only guards
// against pathological rule sets with unbounded instance spaces.
const msgCacheCap = 1024

// sigKey identifies one common signed message: every share of a given
// class over the same values verifies against the same bytes.
type sigKey struct {
	class Class
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

	// Stage 1: every pre-signature check, in arrival order. Rejections
	// are final; survivors defer their signature check.
	v.pend = v.pend[:0]
	var memo digestMemo
	for i := range in {
		m := &in[i]
		if _, reason, ok := v.checkPre(round, m.From, m.Raw, m.Payload, m.Err, &memo); !ok {
			v.rep.Rejected[reason]++
			verdicts = append(verdicts, false)
			continue
		}
		verdicts = append(verdicts, false) // settled in stage 2
		v.pend = append(v.pend, i)
	}

	// Stage 2: settle deferred signature checks. Batchable classes
	// (threshold shares against a common message) group by sigKey and
	// verify once; everything else verifies individually.
	for gi := 0; gi < len(v.pend); gi++ {
		i := v.pend[gi]
		if i < 0 {
			continue // settled as part of an earlier group
		}
		m := &in[i]
		key, share, pk, batchable := v.batchInfo(m.Payload)
		if !batchable {
			v.settle(&verdicts[i], v.rules.signatureOK(m.From, m.Payload))
			continue
		}
		if pk == nil {
			// Nil keys skip the class, matching signatureOK.
			v.settle(&verdicts[i], true)
			continue
		}
		if share.Signer != m.From {
			// Authenticated channels: a sender may only contribute its
			// own share (shareValid's first clause) — no crypto needed.
			v.settle(&verdicts[i], false)
			continue
		}
		// Collect the group: every later pending message contributing a
		// share against the same common message.
		v.shareBuf = append(v.shareBuf[:0], share)
		v.idxBuf = append(v.idxBuf[:0], i)
		for gj := gi + 1; gj < len(v.pend); gj++ {
			j := v.pend[gj]
			if j < 0 {
				continue
			}
			keyJ, shareJ, _, okJ := v.batchInfo(in[j].Payload)
			if !okJ || keyJ != key {
				continue
			}
			v.pend[gj] = -1
			if shareJ.Signer != in[j].From {
				v.settle(&verdicts[j], false)
				continue
			}
			v.shareBuf = append(v.shareBuf, shareJ)
			v.idxBuf = append(v.idxBuf, j)
		}
		msg := v.sigMessage(key)
		if threshsig.VerBatch(pk, msg, v.shareBuf) {
			for _, idx := range v.idxBuf {
				v.settle(&verdicts[idx], true)
			}
		} else {
			// Fallback: attribute blame per share so one Byzantine
			// share never poisons the honest rest of the group. A
			// one-share VerBatch is exactly VerShare, minus VerShare's
			// key derivation and hmac.New allocations
			// (TestBatchSteadyStateAllocations).
			for si, idx := range v.idxBuf {
				v.settle(&verdicts[idx], threshsig.VerBatch(pk, msg, v.shareBuf[si:si+1]))
			}
		}
	}
	return verdicts
}

// settle finalizes one deferred verdict and counts it.
func (v *Validator) settle(verdict *bool, ok bool) {
	if ok {
		*verdict = true
		v.rep.Admitted++
	} else {
		v.rep.Rejected[RejectSignature]++
	}
}

// batchInfo reports whether a payload's signature check is batchable —
// a threshold share verified against a message common to its (class,
// value, instance) group — and if so returns the group key, the share,
// and the verifying key. Certificates, combined signatures and
// dealer-signed sets verify individually.
func (v *Validator) batchInfo(p sim.Payload) (sigKey, threshsig.Share, *threshsig.PublicKey, bool) {
	switch pv := p.(type) {
	case proxcensus.LinearVote:
		return sigKey{class: ClassLinearVote, a: pv.V}, pv.Share, v.rules.ProxPK, true
	case proxcensus.LinearOmegaShare:
		return sigKey{class: ClassLinearOmegaShare, a: pv.V}, pv.Share, v.rules.ProxPK, true
	case proxcensus.QuadVote:
		return sigKey{class: ClassQuadVote, a: pv.V}, pv.Share, v.rules.ProxPK, true
	case proxcensus.QuadOmegaShare:
		return sigKey{class: ClassQuadOmegaShare, a: pv.V, b: pv.J}, pv.Share, v.rules.ProxPK, true
	case coin.SharePayload:
		return sigKey{class: ClassCoinShare, a: pv.K}, pv.Share, v.rules.CoinPK, true
	default:
		return sigKey{}, threshsig.Share{}, nil, false
	}
}

// sigMessage returns the common signed message for a group key,
// building and caching it on first use. The cache persists across
// rounds: vote messages recur every iteration, coin instances advance
// slowly, and the cap bounds adversarial growth.
func (v *Validator) sigMessage(key sigKey) []byte {
	if m, ok := v.msgCache[key]; ok {
		return m
	}
	var m []byte
	switch key.class {
	case ClassLinearVote:
		m = proxcensus.LinearSigmaMessage(key.a)
	case ClassLinearOmegaShare:
		m = proxcensus.LinearOmegaMessage(key.a)
	case ClassQuadVote:
		m = proxcensus.QuadMessage(key.a, 1)
	case ClassQuadOmegaShare:
		m = proxcensus.QuadMessage(key.a, key.b)
	case ClassCoinShare:
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
