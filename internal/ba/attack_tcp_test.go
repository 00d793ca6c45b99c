package ba_test

import (
	"fmt"
	"testing"
	"time"

	"proxcensus/internal/ba"
	"proxcensus/internal/chaos"
	"proxcensus/internal/coin"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/transport"
	"proxcensus/internal/validate"
	"proxcensus/internal/wire"
)

// The TCP ports of the simulator attack regressions: the slot-straddle
// and equivocator adversaries, replayed over the wire as Byzantine
// chaos roles with ingress screening on. The adaptive simulator
// attacks rush — they read honest round traffic before answering —
// which the hub's round barrier forbids, so the wire variants are
// static. The guarantees under test are the same ones the simulator
// regressions pin: Theorem 1 slot adjacency for graded consensus, and
// validity for the BA protocols whenever honest inputs agree.

// tcpCfg mirrors the chaos package's quick timing so a scheduled crash
// costs milliseconds, not the 30s production deadline.
func tcpCfg() transport.Config {
	return transport.Config{
		RoundTimeout: 300 * time.Millisecond,
		JoinTimeout:  2 * time.Second,
	}
}

// TestTCPStraddleExpandConsistency ports the expand slot-straddle to
// the wire: honest inputs split 0/1, the Byzantine node boosts one
// honest party and drags the rest down. Honest outputs may land in
// different slots, but Theorem 1's adjacency must hold — exactly what
// the simulator's ExpandAdaptiveSplit regressions check.
func TestTCPStraddleExpandConsistency(t *testing.T) {
	const n, tc, rounds = 4, 1, 3
	s, err := chaos.Parse("byz:3@straddle", n, tc, rounds)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		input := 1
		if i == 0 {
			input = 0
		}
		machines[i] = proxcensus.NewExpandMachine(n, tc, rounds, input)
	}
	cfg := tcpCfg()
	cfg.NewIngress = func(int) *validate.Validator {
		return validate.New(validate.ForExpand(n, rounds, 1))
	}
	res, err := chaos.Run(machines, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]proxcensus.Result, 0, n)
	for _, id := range res.Survivors() {
		if res.Errs[id] != nil {
			t.Fatalf("honest node %d failed under straddle: %v", id, res.Errs[id])
		}
		results = append(results, res.Outputs[id].(proxcensus.Result))
	}
	if err := proxcensus.CheckConsistency(proxcensus.ExpandSlots(rounds), results); err != nil {
		t.Errorf("straddle broke slot adjacency over TCP: %v\noutputs: %v", err, results)
	}
}

// TestTCPAttackCannotBreakValidity ports the simulator's validity
// regressions: when the honest parties already agree, neither the
// equivocator nor the straddler can talk any of them out of it — over
// the wire, with every honest node screening its ingress.
func TestTCPAttackCannotBreakValidity(t *testing.T) {
	const kappa = 2
	t.Run("oneshot-equivocate", func(t *testing.T) {
		t.Parallel()
		tcpValidityRun(t, "oneshot", "byz:3@equivocate", 4, 1, kappa, 1)
	})
	t.Run("oneshot-straddle", func(t *testing.T) {
		t.Parallel()
		tcpValidityRun(t, "oneshot", "byz:3@straddle", 4, 1, kappa, 1)
	})
	t.Run("half-equivocate", func(t *testing.T) {
		t.Parallel()
		tcpValidityRun(t, "half", "byz:4@equivocate", 5, 2, kappa, 1)
	})
	t.Run("half-straddle", func(t *testing.T) {
		t.Parallel()
		tcpValidityRun(t, "half", "byz:4@straddle", 5, 2, kappa, 1)
	})
}

// tcpValidityRun executes one BA protocol over TCP under the given
// Byzantine spec with unanimous honest inputs and asserts every honest
// survivor decides that input.
func tcpValidityRun(t *testing.T, family, spec string, n, tc, kappa int, input ba.Value) {
	t.Helper()
	setup, err := ba.NewSetup(n, tc, ba.CoinThreshold, 7)
	if err != nil {
		t.Fatal(err)
	}
	var p *ba.Protocol
	cfg := tcpCfg()
	switch family {
	case "oneshot":
		p, err = ba.NewOneShot(setup, kappa, constInputs(n, input))
		cfg.NewIngress = func(int) *validate.Validator {
			return validate.New(validate.ForOneShot(n, kappa, 1, setup.Mode))
		}
	case "half":
		p, err = ba.NewHalf(setup, kappa, constInputs(n, input))
		cfg.NewIngress = func(int) *validate.Validator {
			return validate.New(validate.ForHalf(n))
		}
	default:
		t.Fatalf("unknown family %q", family)
	}
	if err != nil {
		t.Fatal(err)
	}
	s, err := chaos.Parse(spec, n, tc, p.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chaos.Run(p.Machines, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckAgreement(); err != nil {
		t.Fatalf("spec %q: %v", spec, err)
	}
	for _, id := range res.Survivors() {
		if v := res.Outputs[id].(ba.Value); v != input {
			t.Errorf("spec %q: survivor %d decided %d, want %d (validity)", spec, id, v, input)
		}
	}
}

// TestTCPForgedSharesCannotBreakValidity: the screen verifies no
// signature, so forged shares reach the honest machines, which are the
// one check. A raw-client node of the half family sends, in each local
// round, what that round carries from it — its vote, its Ω share, its
// coin share — under its own signer ID with a MAC that does not verify.
// The screen admits every one of them; every honest survivor still
// decides the unanimous input.
func TestTCPForgedSharesCannotBreakValidity(t *testing.T) {
	const n, tc, kappa, forger = 5, 2, 2, 4
	setup, err := ba.NewSetup(n, tc, ba.CoinThreshold, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ba.NewHalf(setup, kappa, constInputs(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	forged := func(round int) sim.Payload {
		switch (round-1)%3 + 1 {
		case 1:
			return proxcensus.LinearVote{V: 1, Share: badShare(setup.ProxSKs[forger], proxcensus.LinearSigmaMessage(1))}
		case 2:
			return proxcensus.LinearOmegaShare{V: 1, Share: badShare(setup.ProxSKs[forger], proxcensus.LinearOmegaMessage(1))}
		default:
			k := (round - 1) / 3
			return coin.SharePayload{K: k, Share: badShare(setup.CoinSKs[forger], coin.InstanceMessage(ba.HalfCoinDomain, k))}
		}
	}
	cfg := tcpCfg()
	cfg.NewIngress = func(int) *validate.Validator { return validate.New(validate.ForHalf(n)) }
	raw := map[int]func(addr string) error{forger: func(addr string) error {
		c, err := transport.DialRaw(addr, forger, 0, cfg)
		if err != nil {
			return err
		}
		defer func() { _ = c.Close() }()
		for round := 1; round <= p.Rounds; round++ {
			b, err := wire.Encode(forged(round))
			if err != nil {
				return err
			}
			if err := c.SendBatch(round, []wire.BatchMsg{{Addr: sim.Broadcast, Payload: b}}); err != nil {
				return fmt.Errorf("round %d send: %w", round, err)
			}
			if _, _, err := c.Recv(); err != nil {
				return fmt.Errorf("round %d recv: %w", round, err)
			}
		}
		return nil
	}}
	res, err := transport.RunLocal(p.Machines, p.Rounds, cfg, raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errs[forger] != nil {
		t.Fatalf("forging node: %v", res.Errs[forger])
	}
	for id := 0; id < n; id++ {
		if id == forger {
			continue
		}
		if res.Errs[id] != nil {
			t.Fatalf("node %d: %v", id, res.Errs[id])
		}
		if v := res.Outputs[id].(ba.Value); v != 1 {
			t.Errorf("node %d decided %d, want 1 (validity)", id, v)
		}
		if v := res.Nodes[id].Validation; v == nil || v.TotalRejected() != 0 {
			t.Errorf("node %d: the screen rejected traffic, so the forgeries may not have reached the machine: %v", id, v)
		}
	}
}

// TestGeneralScreenAdmitsEveryFamily runs every BA family over TCP with
// no NewIngress configured, so RunLocal screens each node with
// validate.General. The screen must be transparent to honest traffic:
// every node reports a screen that rejected nothing and logged no
// evidence, and every decision equals the simulator's on the same
// setup, split inputs and seed.
func TestGeneralScreenAdmitsEveryFamily(t *testing.T) {
	const n, tc, kappa, seed = 7, 2, 4, 3
	inputs := []ba.Value{0, 1, 1, 0, 1, 0, 1}
	setup, err := ba.NewSetup(n, tc, ba.CoinThreshold, 11)
	if err != nil {
		t.Fatal(err)
	}
	families := []struct {
		name  string
		build func() (*ba.Protocol, error)
	}{
		{"oneshot", func() (*ba.Protocol, error) { return ba.NewOneShot(setup, kappa, inputs) }},
		{"fm", func() (*ba.Protocol, error) { return ba.NewFM(setup, kappa, inputs) }},
		{"half", func() (*ba.Protocol, error) { return ba.NewHalf(setup, kappa, inputs) }},
		{"half-sequential-coin", func() (*ba.Protocol, error) { return ba.NewHalfSequentialCoin(setup, kappa, inputs) }},
		{"mv", func() (*ba.Protocol, error) { return ba.NewMV(setup, kappa, inputs) }},
		{"mvcert", func() (*ba.Protocol, error) { return ba.NewMVCert(setup, kappa, inputs) }},
		{"quad", func() (*ba.Protocol, error) { return ba.NewIteratedHalfQuad(setup, kappa, 3, inputs) }},
		{"lasvegas", func() (*ba.Protocol, error) { return ba.NewLasVegas(setup, kappa, inputs) }},
		{"multivalued-oneshot", func() (*ba.Protocol, error) { return ba.NewMultivaluedOneShot(setup, kappa, inputs, -1) }},
		{"multivalued-half", func() (*ba.Protocol, error) { return ba.NewMultivaluedHalf(setup, kappa, inputs, -1) }},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			simProto, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := simProto.Run(nil, seed)
			if err != nil {
				t.Fatal(err)
			}
			tcpProto, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := transport.RunLocal(tcpProto.Machines, tcpProto.Rounds, tcpCfg(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if res.Errs[i] != nil {
					t.Fatalf("node %d: %v", i, res.Errs[i])
				}
				v := res.Nodes[i].Validation
				if v == nil {
					t.Fatalf("node %d ran unscreened", i)
				}
				if v.Admitted == 0 || v.TotalRejected() != 0 || len(v.Evidence) != 0 {
					t.Errorf("node %d: screen rejected honest traffic: %s, evidence %v", i, v.Summary(), v.Evidence)
				}
				if got, ref := fmt.Sprint(res.Outputs[i]), fmt.Sprint(want.Outputs[i]); got != ref {
					t.Errorf("node %d decided %s over TCP, %s in the simulator", i, got, ref)
				}
			}
		})
	}
}
