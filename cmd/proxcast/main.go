// Command proxcast demonstrates the s-slot Proxcast of Appendix A: a
// dealer distributes a signed value in s-1 rounds against up to t < n
// corruptions, and every party grades how consistently it saw it.
//
//	proxcast -n 6 -s 9 -dealer honest
//	proxcast -n 6 -s 9 -dealer withhold
//	proxcast -n 6 -s 9 -dealer release -release 5
//
// With -seed or -faults the run leaves the simulator and executes over
// real TCP with a chaos fault schedule injected: benign deployment
// faults (crashes, drops, delays, duplicated frames, partitions) and
// Byzantine nodes speaking the wire format maliciously (byz:NODE@ROLE,
// roles equivocate|garbage|replay|straddle|wronground|dupflood|
// malformed). Honest nodes screen their ingress through
// internal/validate. The printed spec replays the exact schedule via
// -faults:
//
//	proxcast -n 6 -s 9 -seed 3
//	proxcast -n 6 -s 9 -faults 'crash:2@3;drop:1@2'
//	proxcast -n 6 -s 9 -faults 'byz:5@equivocate;crash:2@3'
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"proxcensus/internal/adversary"
	"proxcensus/internal/chaos"
	"proxcensus/internal/crypto/sig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/transport"
	"proxcensus/internal/validate"
)

func main() {
	var (
		n        = flag.Int("n", 6, "number of parties")
		t        = flag.Int("t", 2, "corruption budget")
		s        = flag.Int("s", 9, "slot count (runs s-1 rounds)")
		behavior = flag.String("dealer", "honest", "honest | equivocate | withhold | release")
		release  = flag.Int("release", 3, "round to release the contradiction (dealer=release)")
		input    = flag.Int("input", 1, "dealer input value")
		pr       = flag.Bool("player-replaceable", false, "enable the n-t forwarding quota (t<n/2 variant)")
		faults   = flag.String("faults", "", "chaos schedule spec to inject over TCP (e.g. 'crash:2@3;byz:5@garbage')")
		seed     = flag.Int64("seed", 0, "generate a seeded chaos schedule and run it over TCP (0 = simulator)")
		roundTO  = flag.Duration("round-timeout", time.Second, "per-round deadline in chaos mode")
	)
	flag.Parse()
	var err error
	if *faults != "" || *seed != 0 {
		err = runChaos(*n, *t, *s, *behavior, *input, *pr, *faults, *seed, *roundTO)
	} else {
		err = run(*n, *t, *s, *behavior, *release, *input, *pr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "proxcast: %v\n", err)
		os.Exit(1)
	}
}

// runChaos executes the honest-dealer proxcast over TCP under a fault
// schedule: parsed from -faults, or generated from -seed. Byzantine
// nodes come from the schedule (byz:NODE@ROLE); the -dealer strategies
// are adaptive simulator adversaries and stay simulator-only.
func runChaos(n, t, s int, behavior string, input int, pr bool, spec string, seed int64, roundTO time.Duration) error {
	// Pre-flight: every knob the run depends on is checked before a
	// socket opens, each with its own pointed error.
	switch {
	case s < 2:
		return fmt.Errorf("-s must be >= 2 (s slots run s-1 rounds), got %d", s)
	case n < 2:
		return fmt.Errorf("-n must be >= 2, got %d", n)
	case t < 0 || t >= n:
		return fmt.Errorf("-t must satisfy 0 <= t < n, got n=%d t=%d", n, t)
	case roundTO <= 0:
		return fmt.Errorf("-round-timeout must be positive in chaos mode, got %s", roundTO)
	}
	if behavior != "honest" {
		return fmt.Errorf("the -dealer strategies are adaptive simulator adversaries; in chaos mode schedule Byzantine nodes with 'byz:NODE@ROLE' in -faults instead")
	}
	rounds := s - 1
	var sched chaos.Schedule
	var err error
	if spec != "" {
		if sched, err = chaos.Parse(spec, n, t, rounds); err != nil {
			return err
		}
	} else {
		sched = chaos.Generate(n, t, rounds, seed)
	}

	const dealer = 0
	var keySeed [sig.Size]byte
	keySeed[0] = 0x5a
	pk, sk := sig.KeyGen(dealer, keySeed)
	machines := proxcensus.NewProxcastMachines(proxcensus.ProxcastConfig{
		N: n, T: t, Slots: s, Dealer: dealer,
		Input: input, DealerPK: pk, DealerSK: sk, PlayerReplaceable: pr,
	})

	cfg := transport.DefaultConfig()
	cfg.RoundTimeout = roundTO
	cfg.NewIngress = func(int) *validate.Validator {
		return validate.New(validate.ForProxcast(n, rounds, pk))
	}
	res, err := chaos.Run(machines, sched, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("proxcast: n=%d t=%d s=%d rounds=%d transport=tcp\n", n, t, s, rounds)
	fmt.Printf("schedule: %q (replay with -faults)\n", sched.Spec())
	fmt.Printf("faulty: %v\n", sched.FaultyNodes())
	results := make([]proxcensus.Result, 0, n)
	for _, id := range res.Survivors() {
		if res.Errs[id] != nil {
			fmt.Printf("  party %d: error: %v\n", id, res.Errs[id])
			continue
		}
		r := res.Outputs[id].(proxcensus.Result)
		results = append(results, r)
		fmt.Printf("  party %d: value=%d grade=%d/%d\n", id, r.Value, r.Grade, proxcensus.MaxGrade(s))
	}
	fmt.Printf("transport: %s\n", res.Hub.Summary())
	v := res.Validation()
	fmt.Printf("ingress: %s\n", v.Summary())
	for _, e := range v.Evidence {
		fmt.Printf("  equivocation %s\n", e)
	}
	if err := res.CheckAgreement(); err != nil {
		fmt.Printf("AGREEMENT: VIOLATED (%v)\n", err)
	} else if err := proxcensus.CheckConsistency(s, results); err != nil {
		fmt.Printf("CONSISTENCY: VIOLATED (%v)\n", err)
	} else {
		fmt.Println("CONSISTENCY: ok")
	}
	return nil
}

// run executes the proxcast in the simulator against the -dealer
// strategy, after a pre-flight that rejects every input the strategy
// cannot honour with a pointed error.
func run(n, t, s int, behavior string, release, input int, pr bool) error {
	if s < 2 || n < 2 || t < 0 || t >= n {
		return fmt.Errorf("invalid parameters n=%d t=%d s=%d", n, t, s)
	}
	if behavior == "release" {
		switch {
		case t < 2:
			return fmt.Errorf("-dealer release corrupts the dealer and an accomplice, so it needs -t >= 2, got %d", t)
		case release < 1 || release > s-1:
			return fmt.Errorf("-release must lie in [1, s-1] = [1, %d] to release within the run, got %d", s-1, release)
		}
	}
	const dealer, accomplice = 0, 1
	var seed [sig.Size]byte
	seed[0] = 0x5a
	pk, sk := sig.KeyGen(dealer, seed)
	cfg := proxcensus.ProxcastConfig{
		N: n, T: t, Slots: s, Dealer: dealer,
		Input: input, DealerPK: pk, PlayerReplaceable: pr,
	}

	var adv sim.Adversary
	switch behavior {
	case "honest":
		adv, cfg.DealerSK = sim.Passive{}, sk
	case "equivocate":
		adv = adversary.EquivocatingDealer(dealer, sk)
	case "withhold":
		adv = adversary.WithholdingDealer(dealer, n-1, input, sk)
	case "release":
		adv = adversary.LateReleaseDealer(dealer, accomplice, release, sk)
	default:
		return fmt.Errorf("unknown dealer behaviour %q", behavior)
	}
	machines := proxcensus.NewProxcastMachines(cfg)

	res, err := sim.Run(sim.Config{N: n, T: t, Rounds: s - 1, Seed: 1}, machines, adv)
	if err != nil {
		return err
	}
	fmt.Printf("proxcast: n=%d t=%d s=%d rounds=%d dealer=%s\n", n, t, s, s-1, behavior)
	results := make([]proxcensus.Result, 0, len(res.Outputs))
	for p := 0; p < n; p++ {
		out, ok := res.Outputs[p]
		if !ok {
			fmt.Printf("  party %d: corrupted\n", p)
			continue
		}
		r := out.(proxcensus.Result)
		results = append(results, r)
		fmt.Printf("  party %d: value=%d grade=%d/%d\n", p, r.Value, r.Grade, proxcensus.MaxGrade(s))
	}
	if err := proxcensus.CheckConsistency(s, results); err != nil {
		fmt.Printf("CONSISTENCY: VIOLATED (%v)\n", err)
	} else {
		fmt.Println("CONSISTENCY: ok")
	}
	return nil
}
