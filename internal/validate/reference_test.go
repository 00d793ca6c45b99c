package validate

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"reflect"
	"testing"

	"proxcensus/internal/ba"
	"proxcensus/internal/coin"
	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/wire"
)

// refScreen is the map-based screen AdmitBatch ran before it kept
// per-sender slots: every (sender, digest) pair of the round in one
// set, every single-instance stream in one map, both cleared at each
// round boundary. It screens message by message. It classifies a
// message by its payload's Go type where the screen reads the wire tag,
// so the differential also holds the tag to the type it encodes.
type refScreen struct {
	rules Rules
	round int
	dup   map[dupKey]struct{}
	first map[uniKey]sim.Payload
	rep   Report
}

func newRefScreen(rules Rules) *refScreen {
	return &refScreen{
		rules: rules.withDefaults(),
		dup:   make(map[dupKey]struct{}),
		first: make(map[uniKey]sim.Payload),
	}
}

// admitReference screens one batch through the reference.
func admitReference(r *refScreen, round int, in []Inbound) []bool {
	if round != r.round {
		r.round = round
		clear(r.dup)
		clear(r.first)
	}
	out := make([]bool, len(in))
	for i, m := range in {
		reason, ok := r.check(round, m)
		if !ok {
			r.rep.Rejected[reason]++
			continue
		}
		r.rep.Admitted++
		out[i] = true
	}
	return out
}

func (r *refScreen) check(round int, m Inbound) (Reason, bool) {
	if m.From < 0 || m.From >= r.rules.N {
		return RejectSender, false
	}
	if m.Err != nil || m.Payload == nil {
		return RejectMalformed, false
	}
	class := refClassOf(m.Payload)
	if class == wire.ClassUnknown {
		return RejectMalformed, false
	}
	if allowed := r.rules.allowedAt(round); allowed != nil && !allowed.Has(class) {
		return RejectType, false
	}
	if !r.rules.inDomain(round, m.Payload) {
		return RejectDomain, false
	}
	key := dupKey{from: m.From, hash: sha256.Sum256(m.Raw)}
	if _, seen := r.dup[key]; seen {
		return RejectDuplicate, false
	}
	r.dup[key] = struct{}{}
	if singleInstance(class) {
		key := uniKey{from: m.From, class: class, sub: subKey(m.Payload)}
		if prev, seen := r.first[key]; seen {
			if len(r.rep.Evidence) < evidenceCap {
				r.rep.Evidence = append(r.rep.Evidence, Evidence{
					From: m.From, Round: round, Class: class,
					First: renderPayload(prev), Second: renderPayload(m.Payload),
				})
			}
			return RejectEquivocation, false
		}
		r.first[key] = m.Payload
	}
	return 0, true
}

// refClassOf maps a decoded payload to its class by Go type.
func refClassOf(p sim.Payload) wire.Class {
	switch p.(type) {
	case proxcensus.EchoPayload:
		return wire.ClassEcho
	case proxcensus.LinearVote:
		return wire.ClassLinearVote
	case proxcensus.LinearOmegaShare:
		return wire.ClassLinearOmegaShare
	case proxcensus.LinearSigma:
		return wire.ClassLinearSigma
	case proxcensus.LinearOmega:
		return wire.ClassLinearOmega
	case proxcensus.LinearSigmaCert:
		return wire.ClassLinearSigmaCert
	case proxcensus.LinearOmegaCert:
		return wire.ClassLinearOmegaCert
	case proxcensus.QuadVote:
		return wire.ClassQuadVote
	case proxcensus.QuadOmegaShare:
		return wire.ClassQuadOmegaShare
	case proxcensus.QuadSig:
		return wire.ClassQuadSig
	case proxcensus.ProxcastSet:
		return wire.ClassProxcastSet
	case coin.SharePayload:
		return wire.ClassCoinShare
	case ba.TCValue:
		return wire.ClassTCValue
	case ba.TCEcho:
		return wire.ClassTCEcho
	case ba.TCCandidate:
		return wire.ClassTCCandidate
	case ba.TCPayload:
		return wire.ClassTCPayload
	case ba.TCPayloadEcho:
		return wire.ClassTCPayloadEcho
	default:
		return wire.ClassUnknown
	}
}

// admitFuzzN is the party count of the differential screen; senders are
// drawn from [-1, n].
const admitFuzzN = 5

// admitFuzzKit is the signing material the differential test draws
// payloads from, built once: signing per message would dominate a fuzz
// iteration.
type admitFuzzKit struct {
	setup *ba.Setup
	sigma [2]threshsig.Signature
}

func newAdmitFuzzKit(t testing.TB) *admitFuzzKit {
	t.Helper()
	setup, err := ba.NewSetup(admitFuzzN, (admitFuzzN-1)/2, ba.CoinThreshold, 7)
	if err != nil {
		t.Fatal(err)
	}
	return &admitFuzzKit{setup: setup, sigma: [2]threshsig.Signature{mustCombine(t, setup, 0), mustCombine(t, setup, 1)}}
}

// rules returns the rule set selected by sel: the half-regime phase
// table, permissive rules with a value bound, or the payload service's
// rules with a tiny size cap.
func (k *admitFuzzKit) rules(sel byte) Rules {
	switch sel % 3 {
	case 0:
		return ForHalf(admitFuzzN)
	case 1:
		r := General(admitFuzzN)
		r.MaxValue = 2
		return r
	default:
		return ForPayloadService(admitFuzzN, 2)
	}
}

// payload draws one payload: class from c, value or sub-key from v, and
// the signer from s — the sender itself for s%4 < 2, another party for
// 2, and a forged share for 3.
func (k *admitFuzzKit) payload(from int, c, v, s byte) sim.Payload {
	val := int(v % 4)
	signer := from
	if signer < 0 || signer >= admitFuzzN || s%4 == 2 {
		signer = int(s/4) % admitFuzzN
	}
	sign := func(sks []*threshsig.SecretKey, m []byte) threshsig.Share {
		share := threshsig.SignShare(sks[signer], m)
		if s%4 == 3 {
			share.MAC[0] ^= 1
		}
		return share
	}
	prox := k.setup.ProxSKs
	switch c % 13 {
	case 0:
		return proxcensus.EchoPayload{Z: val % 3, H: val / 3}
	case 1:
		return proxcensus.LinearVote{V: val, Share: sign(prox, proxcensus.LinearSigmaMessage(val))}
	case 2:
		return proxcensus.LinearOmegaShare{V: val, Share: sign(prox, proxcensus.LinearOmegaMessage(val))}
	case 3:
		sig := k.sigma[val%2]
		if s%4 == 3 {
			sig[0] ^= 1
		}
		return proxcensus.LinearSigma{V: val % 2, Sig: sig}
	case 4:
		return proxcensus.QuadOmegaShare{V: val % 2, J: val / 2, Share: sign(prox, proxcensus.QuadMessage(val%2, val/2))}
	case 5:
		return coin.SharePayload{K: val % 2, Share: sign(k.setup.CoinSKs, coin.InstanceMessage(ba.HalfCoinDomain, val%2))}
	case 6:
		return ba.TCValue{V: val}
	case 7:
		return ba.TCEcho{V: val % 2, Valid: val >= 2}
	case 8:
		return ba.TCPayload{Data: bytes.Repeat([]byte{byte(val)}, val)}
	case 9:
		return ba.TCPayloadEcho{Data: bytes.Repeat([]byte{7}, val), Valid: s%2 == 0}
	case 10:
		return proxcensus.ProxcastSet{Pairs: []proxcensus.ProxcastPair{{Z: val}}}
	default:
		return nil // malformed bytes
	}
}

// runAdmitDifferential replays the message script in data through
// AdmitBatch and the reference and fails on the first batch after which
// their verdicts, Report counters or Evidence differ. data[0] picks the
// rule set; then each message takes five bytes: sender, class, value,
// signer, and flags — bit 0 resends an earlier message of the round
// byte for byte instead, bit 1 closes the batch, bit 2 advances the
// round (closing the batch too), and bit 3 advances it by two.
func runAdmitDifferential(t *testing.T, k *admitFuzzKit, data []byte) {
	if len(data) == 0 {
		return
	}
	rules := k.rules(data[0])
	data = data[1:]
	v, ref := New(rules), newRefScreen(rules)
	round := 1
	var batch, sent []Inbound
	verdicts := make([]bool, 0, 8)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		verdicts = v.AdmitBatch(round, batch, verdicts[:0])
		want := admitReference(ref, round, batch)
		if !reflect.DeepEqual(verdicts, want) {
			t.Fatalf("round %d: verdicts %v, reference %v (batch %+v)", round, verdicts, want, batch)
		}
		if got, want := v.Report(), ref.rep; !reportsEqual(got, want) {
			t.Fatalf("round %d: report %s %v, reference %s %v", round, got.Summary(), got.Evidence, want.Summary(), want.Evidence)
		}
		batch = batch[:0]
	}
	for ; len(data) >= 5; data = data[5:] {
		from := int(data[0]%(admitFuzzN+2)) - 1
		flags := data[4]
		m := Inbound{From: from}
		switch {
		case flags&1 != 0 && len(sent) > 0:
			m = sent[int(data[2])%len(sent)]
		default:
			if p := k.payload(from, data[1], data[2], data[3]); p != nil {
				raw, err := wire.Encode(p)
				if err != nil {
					t.Fatal(err)
				}
				m.Raw, m.Payload = raw, p
			} else {
				m.Raw, m.Err = []byte{0xff, data[2]}, wire.ErrBadTag
			}
		}
		batch = append(batch, m)
		sent = append(sent, m)
		if flags&6 != 0 {
			flush()
		}
		if flags&4 != 0 {
			round++
			if flags&8 != 0 {
				round++
			}
			sent = sent[:0]
		}
	}
	flush()
}

// FuzzAdmitBatch: the per-sender-slot screen and the map-based reference
// agree on every verdict, counter and evidence entry, batch after batch,
// on arbitrary message scripts. The seeds are random scripts plus the
// shapes that reach the spills: a sender resending its second distinct
// message of a round, and opening two streams in one.
func FuzzAdmitBatch(f *testing.F) {
	k := newAdmitFuzzKit(f)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 48; i++ {
		script := make([]byte, 1+5*(4+rng.Intn(40)))
		rng.Read(script)
		f.Add(script)
	}
	// Under permissive rules sender 0 (byte 1) sends TCValue 0, then
	// TCValue 1 twice — the resend is a duplicate only the dup spill
	// knows of — then opens more streams and, in a second batch of the
	// round, resends a vote and a combined signature.
	f.Add([]byte{1,
		1, 6, 0, 0, 0,
		1, 6, 1, 0, 0,
		1, 6, 1, 0, 0,
		1, 0, 0, 0, 0,
		1, 0, 1, 0, 2,
		1, 1, 1, 0, 0,
		1, 5, 0, 0, 0,
		1, 1, 1, 0, 0,
		1, 3, 1, 0, 0,
		1, 3, 1, 0, 4,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		runAdmitDifferential(t, k, data)
	})
}
