package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"proxcensus/internal/adversary"
	"proxcensus/internal/ba"
	"proxcensus/internal/chaos"
	"proxcensus/internal/crypto/sig"
	"proxcensus/internal/experiment"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/transport"
	"proxcensus/internal/validate"
)

// The protocols -run executes, and the -adversary strategies each side
// knows: the four BA families, then the Appendix A Proxcast, whose
// strategies are the dealer's.
const (
	baProtocols   = "oneshot fm half mv"
	runProtocols  = baProtocols + " proxcast"
	baAdversaries = "passive crash worstcase"
	dealers       = "honest equivocate withhold release"
)

// execution is one -run: a single traced protocol execution on the
// simulator, or over TCP under a chaos fault schedule.
type execution struct {
	protocol                  string
	n, t, kappa, s, release   int
	inputs, adversary, coin   string
	faults                    string
	seed                      int64
	verbose, tcp, replaceable bool
	roundTimeout              time.Duration
}

// run fills in the protocol's defaults and executes it.
func (x execution) run(w io.Writer) error {
	if x.protocol == "proxcast" {
		x.n, x.inputs = orDefault(x.n, 6), orDefault(x.inputs, "1")
		x.adversary, x.roundTimeout = orDefault(x.adversary, "honest"), orDefault(x.roundTimeout, time.Second)
		return x.runProxcast(w)
	}
	x.n, x.kappa = orDefault(x.n, 7), orDefault(x.kappa, 8)
	x.adversary, x.roundTimeout = orDefault(x.adversary, "passive"), orDefault(x.roundTimeout, 30*time.Second)
	return x.runBA(w)
}

// preflight rejects, before any setup or socket work, what every
// protocol refuses: an -adversary outside known, and over TCP a
// nonpositive deadline or any simulator strategy but honest.
func (x execution) preflight(known string) error {
	if !strings.Contains(" "+known+" ", " "+x.adversary+" ") {
		return fmt.Errorf("unknown -adversary %q for -run %s (know %s)", x.adversary, x.protocol, strings.ReplaceAll(known, " ", ", "))
	}
	switch {
	case !x.tcp:
		return nil
	case x.roundTimeout <= 0:
		return fmt.Errorf("-round-timeout must be positive over TCP, got %s", x.roundTimeout)
	case x.adversary != strings.Fields(known)[0]:
		return fmt.Errorf("-adversary %s is a simulator strategy; over TCP schedule Byzantine nodes with 'byz:NODE@ROLE' in -faults instead", x.adversary)
	case x.verbose:
		return fmt.Errorf("-v traces the simulator's rounds; it has no meaning over TCP")
	}
	return nil
}

// overTCP runs the machines as TCP nodes under the schedule parsed
// from -faults (the empty spec is the empty schedule, a fault-free
// run), each screening its ingress with newIngress (validate.General
// when nil).
func (x execution) overTCP(machines []sim.Machine, sched chaos.Schedule, newIngress func(int) *validate.Validator) (*chaos.Result, error) {
	cfg := transport.DefaultConfig()
	cfg.RoundTimeout = x.roundTimeout
	cfg.NewIngress = newIngress
	return chaos.Run(machines, sched, cfg)
}

// runBA executes one BA protocol with a round tracer.
func (x execution) runBA(w io.Writer) error {
	if err := x.preflight(baAdversaries); err != nil {
		return err
	}
	if x.coin != "ideal" && x.coin != "threshold" {
		return fmt.Errorf("unknown -coin %q (know ideal, threshold)", x.coin)
	}
	mode := ba.CoinIdeal
	if x.coin == "threshold" {
		mode = ba.CoinThreshold
	}
	setup, err := ba.NewSetup(x.n, x.t, mode, x.seed)
	if err != nil {
		return err
	}
	inputs := make([]ba.Value, x.n)
	if x.inputs == "" {
		for i := x.t + 1; i < x.n; i++ {
			inputs[i] = 1
		}
	} else if inputs, err = experiment.ParseBits(x.inputs); err != nil {
		return err
	} else if len(inputs) != x.n {
		return fmt.Errorf("inputs %q has %d digits for n=%d", x.inputs, len(inputs), x.n)
	}

	proto, err := map[string]func(*ba.Setup, int, []ba.Value) (*ba.Protocol, error){
		"oneshot": ba.NewOneShot, "fm": ba.NewFM, "half": ba.NewHalf, "mv": ba.NewMV,
	}[x.protocol](setup, x.kappa, inputs)
	if err != nil {
		return err
	}
	sched, err := chaos.Parse(x.faults, x.n, x.t, proto.Rounds)
	if err != nil {
		return err
	}
	// The worst-case adversary straddles each iteration of this many rounds.
	period := map[string]int{"oneshot": proto.Rounds, "fm": 2, "half": 3, "mv": 2}[x.protocol]
	var adv sim.Adversary = sim.Passive{}
	switch {
	case x.adversary == "crash":
		adv = &adversary.Crash{Victims: adversary.FirstT(x.t)}
	case x.adversary == "worstcase" && (x.protocol == "oneshot" || x.protocol == "fm"):
		adv = &adversary.ExpandAdaptiveSplit{N: x.n, T: x.t, Period: period}
	case x.adversary == "worstcase":
		adv = &adversary.LinearAdaptiveSplit{N: x.n, T: x.t, Period: period, Keys: setup.ProxSKs[:x.t]}
	}

	fmt.Fprintf(w, "protocol=%s n=%d t=%d kappa=%d rounds=%d coin=%s adversary=%s\n",
		proto.Name, x.n, x.t, x.kappa, proto.Rounds, mode, adv.Name())
	fmt.Fprintf(w, "inputs: %s\n", formatValues(inputs))

	if x.tcp {
		res, err := x.overTCP(proto.Machines, sched, nil)
		if err != nil {
			return err
		}
		if x.faults != "" {
			printSchedule(w, res)
		}
		var decisions []ba.Value
		for _, id := range res.Survivors() {
			if v, ok := res.Outputs[id].(ba.Value); ok {
				decisions = append(decisions, v)
			}
		}
		fmt.Fprintf(w, "\ndecisions (TCP nodes, by ID): %s\n", formatValues(decisions))
		printVerdict(w, "AGREEMENT", res.CheckAgreement())
		return nil
	}

	res, err := sim.Run(sim.Config{
		N: x.n, T: x.t, Rounds: proto.Rounds, Seed: x.seed,
		Tracer: &printTracer{w: w, verbose: x.verbose},
	}, proto.Machines, adv)
	if err != nil {
		return err
	}
	decisions := ba.Decisions(res)
	fmt.Fprintf(w, "\ndecisions (honest, by ID): %s\n", formatValues(decisions))
	fmt.Fprintf(w, "metrics: %s\n", res.Metrics.String())
	printVerdict(w, "AGREEMENT", ba.CheckAgreement(decisions))
	return nil
}

// runProxcast executes the s-slot Proxcast of Appendix A, dealer 0,
// against the -adversary dealer strategy.
func (x execution) runProxcast(w io.Writer) error {
	if err := x.preflight(dealers); err != nil {
		return err
	}
	rounds := x.s - 1
	switch {
	case x.s < 2:
		return fmt.Errorf("-s must be >= 2 (s slots run s-1 rounds), got %d", x.s)
	case x.n < 2:
		return fmt.Errorf("-n must be >= 2, got %d", x.n)
	case x.t < 0 || x.t >= x.n:
		return fmt.Errorf("-t must satisfy 0 <= t < n, got n=%d t=%d", x.n, x.t)
	case x.adversary == "release" && x.t < 2:
		return fmt.Errorf("-adversary release corrupts the dealer and an accomplice, so it needs -t >= 2, got %d", x.t)
	case x.adversary == "release" && (x.release < 1 || x.release > rounds):
		return fmt.Errorf("-release must lie in [1, s-1] = [1, %d] to release within the run, got %d", rounds, x.release)
	case x.adversary != "honest" && x.t < 1:
		return fmt.Errorf("-adversary %s corrupts the dealer, so it needs -t >= 1, got %d", x.adversary, x.t)
	}
	input, err := experiment.ParseBits(x.inputs)
	if err != nil {
		return err
	}
	if len(input) != 1 {
		return fmt.Errorf("-run proxcast takes the dealer's input, one digit, got -inputs %q", x.inputs)
	}
	sched, err := chaos.Parse(x.faults, x.n, x.t, rounds)
	if err != nil {
		return err
	}

	const dealer, accomplice = 0, 1
	var keySeed [sig.Size]byte
	keySeed[0] = 0x5a
	pk, sk := sig.KeyGen(dealer, keySeed)
	cfg := proxcensus.ProxcastConfig{
		N: x.n, T: x.t, Slots: x.s, Dealer: dealer,
		Input: input[0], DealerPK: pk, PlayerReplaceable: x.replaceable,
	}
	var adv sim.Adversary = sim.Passive{}
	switch x.adversary {
	case "honest":
		cfg.DealerSK = sk
	case "equivocate":
		adv = adversary.EquivocatingDealer(dealer, sk)
	case "withhold":
		adv = adversary.WithholdingDealer(dealer, x.n-1, input[0], sk)
	case "release":
		adv = adversary.LateReleaseDealer(dealer, accomplice, x.release, sk)
	}
	machines := proxcensus.NewProxcastMachines(cfg)
	results := make([]proxcensus.Result, 0, x.n)
	printParty := func(id int, out any) {
		r := out.(proxcensus.Result)
		results = append(results, r)
		fmt.Fprintf(w, "  party %d: value=%d grade=%d/%d\n", id, r.Value, r.Grade, proxcensus.MaxGrade(x.s))
	}

	if x.tcp {
		res, err := x.overTCP(machines, sched, func(int) *validate.Validator {
			return validate.New(validate.ForProxcast(x.n, rounds))
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "proxcast: n=%d t=%d s=%d rounds=%d transport=tcp\n", x.n, x.t, x.s, rounds)
		printSchedule(w, res)
		for _, id := range res.Survivors() {
			if res.Errs[id] != nil {
				fmt.Fprintf(w, "  party %d: error: %v\n", id, res.Errs[id])
				continue
			}
			printParty(id, res.Outputs[id])
		}
		fmt.Fprintf(w, "transport: %s\n", res.Hub.Summary())
		v := res.Validation()
		fmt.Fprintf(w, "ingress: %s\n", v.Summary())
		for _, e := range v.Evidence {
			fmt.Fprintf(w, "  equivocation %s\n", e)
		}
		if err := res.CheckAgreement(); err != nil {
			printVerdict(w, "AGREEMENT", err)
			return nil
		}
		printVerdict(w, "CONSISTENCY", proxcensus.CheckConsistency(x.s, results))
		return nil
	}

	res, err := sim.Run(sim.Config{N: x.n, T: x.t, Rounds: rounds, Seed: 1}, machines, adv)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "proxcast: n=%d t=%d s=%d rounds=%d dealer=%s\n", x.n, x.t, x.s, rounds, x.adversary)
	for p := 0; p < x.n; p++ {
		if out, ok := res.Outputs[p]; ok {
			printParty(p, out)
		} else {
			fmt.Fprintf(w, "  party %d: corrupted\n", p)
		}
	}
	printVerdict(w, "CONSISTENCY", proxcensus.CheckConsistency(x.s, results))
	return nil
}

// printSchedule names the schedule a TCP run injected and the nodes it
// charged against the corruption budget.
func printSchedule(w io.Writer, res *chaos.Result) {
	fmt.Fprintf(w, "schedule: %q (replay with -faults)\n", res.Schedule.Spec())
	fmt.Fprintf(w, "faulty: %v\n", res.Schedule.FaultyNodes())
}

// printVerdict prints "what: ok", or the violation err names.
func printVerdict(w io.Writer, what string, err error) {
	if err != nil {
		fmt.Fprintf(w, "%s: VIOLATED (%v)\n", what, err)
	} else {
		fmt.Fprintf(w, "%s: ok\n", what)
	}
}

// formatValues prints values space-separated.
func formatValues(vals []ba.Value) string { return strings.Trim(fmt.Sprint(vals), "[]") }

// printTracer logs the simulator's events, round by round.
type printTracer struct {
	w       io.Writer
	verbose bool
}

func (p *printTracer) RoundStart(round int) {
	fmt.Fprintf(p.w, "--- round %d ---\n", round)
}

func (p *printTracer) HonestSent(round int, msgs []sim.Message) {
	sigs := 0
	for _, m := range msgs {
		if m.Payload != nil {
			sigs += m.Payload.SigCount()
		}
	}
	fmt.Fprintf(p.w, "  honest: %d messages, %d signatures\n", len(msgs), sigs)
	if p.verbose {
		for _, m := range msgs {
			if m.To == 0 { // one receiver is enough to show the shape
				fmt.Fprintf(p.w, "    %2d -> %2d  %T%+v\n", m.From, m.To, m.Payload, m.Payload)
			}
		}
	}
}

func (p *printTracer) AdversarySent(round int, msgs []sim.Message) {
	if len(msgs) > 0 {
		fmt.Fprintf(p.w, "  adversary: %d messages\n", len(msgs))
	}
}

func (p *printTracer) Corrupted(round int, party sim.PartyID) {
	fmt.Fprintf(p.w, "  !! party %d corrupted in round %d\n", party, round)
}
