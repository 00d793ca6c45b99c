// Command basim runs a single Byzantine Agreement execution with
// round-by-round tracing — a microscope on one protocol run.
//
//	basim -protocol oneshot -n 7 -t 2 -kappa 8 -inputs 1101011
//	basim -protocol half -n 5 -t 2 -kappa 6 -adversary worstcase -v
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"proxcensus/internal/adversary"
	"proxcensus/internal/ba"
	"proxcensus/internal/quorum"
	"proxcensus/internal/sim"
	"proxcensus/internal/transport"
)

// printTracer logs engine events.
type printTracer struct {
	verbose bool
}

func (p *printTracer) RoundStart(round int) {
	fmt.Printf("--- round %d ---\n", round)
}

func (p *printTracer) HonestSent(round int, msgs []sim.Message) {
	sigs := 0
	for _, m := range msgs {
		if m.Payload != nil {
			sigs += m.Payload.SigCount()
		}
	}
	fmt.Printf("  honest: %d messages, %d signatures\n", len(msgs), sigs)
	if p.verbose {
		for _, m := range msgs {
			if m.To == 0 { // one receiver is enough to show the shape
				fmt.Printf("    %2d -> %2d  %T%+v\n", m.From, m.To, m.Payload, m.Payload)
			}
		}
	}
}

func (p *printTracer) AdversarySent(round int, msgs []sim.Message) {
	if len(msgs) > 0 {
		fmt.Printf("  adversary: %d messages\n", len(msgs))
	}
}

func (p *printTracer) Corrupted(round int, party sim.PartyID) {
	fmt.Printf("  !! party %d corrupted in round %d\n", party, round)
}

func main() {
	var (
		protoName = flag.String("protocol", "oneshot", "oneshot | fm | half | mv")
		n         = flag.Int("n", 7, "number of parties")
		t         = flag.Int("t", 2, "corruption budget")
		kappa     = flag.Int("kappa", 8, "security parameter")
		inputsStr = flag.String("inputs", "", "binary input string, e.g. 1101011 (default: split)")
		advName   = flag.String("adversary", "passive", "passive | crash | worstcase")
		coinMode  = flag.String("coin", "ideal", "ideal | threshold")
		seed      = flag.Int64("seed", 1, "execution seed")
		verbose   = flag.Bool("v", false, "dump per-party payloads")
		overTCP   = flag.Bool("tcp", false, "run honest parties as TCP nodes (adversary must be passive)")
		roundTO   = flag.Duration("round-timeout", 30*time.Second, "per-round deadline in -tcp mode")
	)
	flag.Parse()
	if err := run(*protoName, *n, *t, *kappa, *inputsStr, *advName, *coinMode, *seed, *verbose, *overTCP, *roundTO); err != nil {
		fmt.Fprintf(os.Stderr, "basim: %v\n", err)
		os.Exit(1)
	}
}

// preflight rejects parameter combinations before any setup or socket
// work: unknown protocols and coins, kappa below 1, quorum-bound
// violations and nonpositive TCP deadlines all fail here with a
// pointed error.
func preflight(protoName string, n, t, kappa int, coinMode string, overTCP bool, roundTO time.Duration) error {
	if kappa < 1 {
		return fmt.Errorf("-kappa must be >= 1, got %d", kappa)
	}
	if coinMode != "ideal" && coinMode != "threshold" {
		return fmt.Errorf("unknown -coin %q (know ideal, threshold)", coinMode)
	}
	switch protoName {
	case "oneshot", "fm":
		if !quorum.TolerateThird(n, t) {
			return fmt.Errorf("protocol %s requires 3t < n, got n=%d t=%d (raise -n or lower -t)", protoName, n, t)
		}
	case "half", "mv":
		if !quorum.TolerateHalf(n, t) {
			return fmt.Errorf("protocol %s requires 2t < n, got n=%d t=%d (raise -n or lower -t)", protoName, n, t)
		}
	default:
		return fmt.Errorf("unknown protocol %q (know oneshot, fm, half, mv)", protoName)
	}
	if overTCP && roundTO <= 0 {
		return fmt.Errorf("-round-timeout must be positive in -tcp mode, got %s", roundTO)
	}
	return nil
}

func run(protoName string, n, t, kappa int, inputsStr, advName, coinMode string, seed int64, verbose, overTCP bool, roundTO time.Duration) error {
	if err := preflight(protoName, n, t, kappa, coinMode, overTCP, roundTO); err != nil {
		return err
	}
	mode := ba.CoinIdeal
	if coinMode == "threshold" {
		mode = ba.CoinThreshold
	}
	setup, err := ba.NewSetup(n, t, mode, seed)
	if err != nil {
		return err
	}

	inputs := make([]ba.Value, n)
	if inputsStr == "" {
		for i := t + 1; i < n; i++ {
			inputs[i] = 1
		}
	} else {
		if len(inputsStr) != n {
			return fmt.Errorf("inputs %q has %d bits for n=%d", inputsStr, len(inputsStr), n)
		}
		for i, c := range inputsStr {
			if c != '0' && c != '1' {
				return fmt.Errorf("inputs must be binary, got %q", inputsStr)
			}
			inputs[i] = int(c - '0')
		}
	}

	var proto *ba.Protocol
	var iterRounds int
	switch protoName {
	case "oneshot":
		proto, err = ba.NewOneShot(setup, kappa, inputs)
		if proto != nil {
			iterRounds = proto.Rounds
		}
	case "fm":
		proto, err = ba.NewFM(setup, kappa, inputs)
		iterRounds = 2
	case "half":
		proto, err = ba.NewHalf(setup, kappa, inputs)
		iterRounds = 3
	case "mv":
		proto, err = ba.NewMV(setup, kappa, inputs)
		iterRounds = 2
	default:
		return fmt.Errorf("unknown protocol %q", protoName)
	}
	if err != nil {
		return err
	}

	var adv sim.Adversary
	switch advName {
	case "passive":
		adv = sim.Passive{}
	case "crash":
		adv = &adversary.Crash{Victims: adversary.FirstT(t)}
	case "worstcase":
		switch protoName {
		case "oneshot", "fm":
			adv = &adversary.ExpandAdaptiveSplit{N: n, T: t, Period: iterRounds}
		default:
			adv = &adversary.LinearAdaptiveSplit{N: n, T: t, Period: iterRounds, Keys: setup.ProxSKs[:t]}
		}
	default:
		return fmt.Errorf("unknown adversary %q", advName)
	}

	fmt.Printf("protocol=%s n=%d t=%d kappa=%d rounds=%d coin=%s adversary=%s\n",
		proto.Name, n, t, kappa, proto.Rounds, mode, adv.Name())
	fmt.Printf("inputs: %s\n", formatValues(inputs))

	if overTCP {
		if advName != "passive" {
			return fmt.Errorf("-tcp runs honest nodes only; use -adversary passive")
		}
		cfg := transport.DefaultConfig()
		cfg.RoundTimeout = roundTO
		res, err := transport.RunLocal(proto.Machines, proto.Rounds, cfg, nil)
		if err != nil {
			return err
		}
		for i, e := range res.Errs {
			if e != nil {
				return fmt.Errorf("node %d: %w", i, e)
			}
		}
		decisions := ba.DecisionsFromOutputs(res.Outputs)
		fmt.Printf("\ndecisions (TCP nodes, by ID): %s\n", formatValues(decisions))
		if err := ba.CheckAgreement(decisions); err != nil {
			fmt.Printf("AGREEMENT: VIOLATED (%v)\n", err)
		} else {
			fmt.Println("AGREEMENT: ok")
		}
		return nil
	}

	res, err := sim.Run(sim.Config{
		N: n, T: t, Rounds: proto.Rounds, Seed: seed,
		Tracer: &printTracer{verbose: verbose},
	}, proto.Machines, adv)
	if err != nil {
		return err
	}

	decisions := ba.Decisions(res)
	fmt.Printf("\ndecisions (honest, by ID): %s\n", formatValues(decisions))
	fmt.Printf("metrics: %s\n", res.Metrics.String())
	if err := ba.CheckAgreement(decisions); err != nil {
		fmt.Printf("AGREEMENT: VIOLATED (%v)\n", err)
	} else {
		fmt.Println("AGREEMENT: ok")
	}
	return nil
}

func formatValues(vals []ba.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, " ")
}
