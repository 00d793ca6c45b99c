package ba_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"proxcensus/internal/ba"
	"proxcensus/internal/coin"
	"proxcensus/internal/crypto/sig"
	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// The machines are the one place a share, a combined signature, a
// certificate or a dealer signature is verified: the ingress screen
// checks structure only. Each row below delivers one forged message of
// a signed class to party 1, in a round its machine reads that class,
// from a corrupted party 0 that otherwise replays its honest traffic.
// The forgery must leave every honest send and output equal to the
// execution without it.

// forgedCase is one forged input and the execution it is injected into.
type forgedCase struct {
	name     string
	n, t     int
	rounds   int
	machines func(t *testing.T) []sim.Machine
	round    int
	forged   sim.Payload
}

// replayAdversary corrupts party 0 before round 1 and sends, each round,
// the traffic party 0 sent in an all-honest execution, with the forged
// message ahead of it toward party 1 in the forged round.
type replayAdversary struct {
	honest map[int][]sim.Message
	round  int
	forged sim.Payload
}

func (a *replayAdversary) Name() string      { return "replay-forge" }
func (a *replayAdversary) Init(env *sim.Env) { env.Corrupt(0) }
func (a *replayAdversary) Act(round int, _ []sim.Message, _ *sim.Env) []sim.Message {
	var out []sim.Message
	if a.forged != nil && round == a.round {
		out = append(out, sim.Message{From: 0, To: 1, Payload: a.forged})
	}
	return append(out, a.honest[round]...)
}

// partyZeroRecorder keeps what party 0 sends in an honest execution.
type partyZeroRecorder struct {
	sim.NopTracer
	sent map[int][]sim.Message
}

func (r *partyZeroRecorder) HonestSent(round int, msgs []sim.Message) {
	for _, m := range msgs {
		if m.From == 0 {
			r.sent[round] = append(r.sent[round], m)
		}
	}
}

// transcriptTracer renders every honest message of an execution.
type transcriptTracer struct {
	sim.NopTracer
	b *strings.Builder
}

func (tr transcriptTracer) HonestSent(round int, msgs []sim.Message) {
	for _, m := range msgs {
		fmt.Fprintf(tr.b, "r%d %d->%d %#v\n", round, m.From, m.To, m.Payload)
	}
}

// forgedTranscript runs c with party 0 replaying its honest traffic and,
// when forged is set, the forged message injected; it returns every
// honest send and output.
func forgedTranscript(t *testing.T, c forgedCase, honest map[int][]sim.Message, forged sim.Payload) string {
	t.Helper()
	var b strings.Builder
	cfg := sim.Config{N: c.n, T: c.t, Rounds: c.rounds, Seed: 1, Tracer: transcriptTracer{b: &b}}
	res, err := sim.Run(cfg, c.machines(t), &replayAdversary{honest: honest, round: c.round, forged: forged})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 0, len(res.Outputs))
	for id := range res.Outputs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "output %d: %#v\n", id, res.Outputs[id])
	}
	return b.String()
}

// badShare is signer's share on m with one MAC bit flipped: its own
// signer ID, a MAC that does not verify.
func badShare(sk *threshsig.SecretKey, m []byte) threshsig.Share {
	s := threshsig.SignShare(sk, m)
	s.MAC[0] ^= 1
	return s
}

// garbageSig is a combined signature nobody produced.
var garbageSig = threshsig.Signature{0xde, 0xad}

func TestForgedInputIsIgnored(t *testing.T) {
	const kappa = 2
	setup, err := ba.NewSetup(3, 1, ba.CoinThreshold, 7)
	if err != nil {
		t.Fatal(err)
	}
	protocol := func(build func() (*ba.Protocol, error)) func(*testing.T) []sim.Machine {
		return func(t *testing.T) []sim.Machine {
			p, err := build()
			if err != nil {
				t.Fatal(err)
			}
			return p.Machines
		}
	}
	half := protocol(func() (*ba.Protocol, error) { return ba.NewHalf(setup, kappa, []ba.Value{1, 1, 1}) })
	quad := protocol(func() (*ba.Protocol, error) { return ba.NewIteratedHalfQuad(setup, kappa, 3, []ba.Value{1, 1, 1}) })
	mvHalf := protocol(func() (*ba.Protocol, error) {
		return ba.NewMultivaluedHalf(setup, kappa, []ba.Value{4, 6, 2}, 0)
	})
	certs := func(*testing.T) []sim.Machine {
		ms := make([]sim.Machine, 3)
		for i := range ms {
			ms[i] = proxcensus.NewLinearMachine(3, 1, 3, 1, setup.ProxPK, setup.ProxSKs[i]).UseExplicitCertificates()
		}
		return ms
	}
	dealerPK, dealerSK := sig.KeyGen(1, [32]byte{9})
	proxcast := func(*testing.T) []sim.Machine {
		return proxcensus.NewProxcastMachines(proxcensus.ProxcastConfig{
			N: 4, T: 1, Slots: 5, Dealer: 1, Input: 1, DealerPK: dealerPK, DealerSK: dealerSK,
		})
	}
	sk0 := setup.ProxSKs[0]
	halfRounds, quadRounds := ba.HalfRounds(kappa), ba.QuadHalfRounds(kappa, 3)
	cases := []forgedCase{
		{"LinearVote", 3, 1, halfRounds, half, 1,
			proxcensus.LinearVote{V: 1, Share: badShare(sk0, proxcensus.LinearSigmaMessage(1))}},
		{"LinearOmegaShare", 3, 1, halfRounds, half, 2,
			proxcensus.LinearOmegaShare{V: 1, Share: badShare(sk0, proxcensus.LinearOmegaMessage(1))}},
		{"LinearSigma", 3, 1, halfRounds, half, 2, proxcensus.LinearSigma{V: 0, Sig: garbageSig}},
		// Round 2, ahead of the honest Ω shares: a forged Ω the machine
		// took would be the one it forwards in round 3.
		{"LinearOmega", 3, 1, halfRounds, half, 2, proxcensus.LinearOmega{V: 1, Sig: garbageSig}},
		{"LinearSigmaCert", 3, 1, 3, certs, 2, proxcensus.LinearSigmaCert{V: 0, Shares: []threshsig.Share{
			badShare(sk0, proxcensus.LinearSigmaMessage(0)), badShare(setup.ProxSKs[2], proxcensus.LinearSigmaMessage(0)),
		}}},
		{"LinearOmegaCert", 3, 1, 3, certs, 3, proxcensus.LinearOmegaCert{V: 0, Shares: []threshsig.Share{
			badShare(sk0, proxcensus.LinearOmegaMessage(0)), badShare(setup.ProxSKs[2], proxcensus.LinearOmegaMessage(0)),
		}}},
		{"QuadVote", 3, 1, quadRounds, quad, 1,
			proxcensus.QuadVote{V: 1, Share: badShare(sk0, proxcensus.QuadMessage(1, 1))}},
		{"QuadOmegaShare", 3, 1, quadRounds, quad, 2,
			proxcensus.QuadOmegaShare{V: 1, J: 2, Share: badShare(sk0, proxcensus.QuadMessage(1, 2))}},
		{"QuadSig", 3, 1, quadRounds, quad, 2, proxcensus.QuadSig{V: 0, J: 1, Sig: garbageSig}},
		{"ProxcastSet", 4, 1, proxcensus.ProxcastRounds(5), proxcast, 2, proxcensus.ProxcastSet{
			Pairs: []proxcensus.ProxcastPair{{Z: 0, Sig: sig.Signature{0xde, 0xad}}},
		}},
		{"coin.SharePayload", 3, 1, halfRounds, half, 3,
			coin.SharePayload{K: 0, Share: badShare(setup.CoinSKs[0], coin.InstanceMessage(ba.HalfCoinDomain, 0))}},
		{"TCCandidate", 3, 1, ba.MultivaluedHalfRounds(kappa), mvHalf, 3, ba.TCCandidate{V: 7, Omega: garbageSig}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := &partyZeroRecorder{sent: make(map[int][]sim.Message)}
			cfg := sim.Config{N: c.n, T: c.t, Rounds: c.rounds, Seed: 1, Tracer: rec}
			if _, err := sim.Run(cfg, c.machines(t), nil); err != nil {
				t.Fatal(err)
			}
			want := forgedTranscript(t, c, rec.sent, nil)
			if got := forgedTranscript(t, c, rec.sent, c.forged); got != want {
				t.Fatalf("forged %T in round %d changed the execution:\nwith it:\n%s\nwithout it:\n%s", c.forged, c.round, got, want)
			}
		})
	}
}
