package main

import (
	"fmt"
	"time"

	"proxcensus/internal/adversary"
	"proxcensus/internal/ba"
	"proxcensus/internal/sim"
	"proxcensus/internal/stats"
)

// The simulator workload: the paper's one-shot protocol at the extremal
// n = 3t+1 with t Byzantine parties under the tight adaptive adversary.
const (
	simN, simT, simKappa = 127, 42, 8
	// simAlpha is the significance at which the observed disagreement
	// count is tested against the protocol's 2^-kappa bound.
	simAlpha = 1e-6
)

// simSpans accumulates the traced executions' time per layer. The
// engine is sequential, so spans never overlap and plain sums do.
type simSpans struct {
	n                              int
	build, run, machine, adversary time.Duration
}

// timedMachine charges a machine's steps to the machine span.
type timedMachine struct {
	inner sim.Machine
	acc   *time.Duration
}

func (m timedMachine) Start() []sim.Send {
	t0 := time.Now()
	out := m.inner.Start()
	*m.acc += time.Since(t0)
	return out
}

func (m timedMachine) Deliver(round int, in []sim.Message) []sim.Send {
	t0 := time.Now()
	out := m.inner.Deliver(round, in)
	*m.acc += time.Since(t0)
	return out
}

func (m timedMachine) Output() (any, bool) { return m.inner.Output() }

// timedAdversary charges the adversary's moves to the adversary span.
type timedAdversary struct {
	sim.Adversary
	acc *time.Duration
}

func (a timedAdversary) Act(round int, honest []sim.Message, env *sim.Env) []sim.Message {
	t0 := time.Now()
	out := a.Adversary.Act(round, honest, env)
	*a.acc += time.Since(t0)
	return out
}

// simExec is the outcome of one execution.
type simExec struct {
	disagree                  bool
	rounds, msgs, sigs, bytes int
}

// simExecute runs execution i: a fresh protocol instance on the shared
// keys, with its own ideal-coin sequence and adversary seed, so the
// executions' coins are independent and the 2^-kappa bound applies to
// their count. spans is nil for an untraced execution.
func simExecute(setup *ba.Setup, inputs []ba.Value, seed int64, spans *simSpans) (simExec, error) {
	s := *setup
	s.Seed = seed
	t0 := time.Now()
	proto, err := ba.NewOneShot(&s, simKappa, inputs)
	if err != nil {
		return simExec{}, err
	}
	var adv sim.Adversary = &adversary.ExpandAdaptiveSplit{N: simN, T: simT, Period: proto.Rounds}
	t1 := time.Now()
	if spans != nil {
		for i, m := range proto.Machines {
			proto.Machines[i] = timedMachine{inner: m, acc: &spans.machine}
		}
		adv = timedAdversary{Adversary: adv, acc: &spans.adversary}
	}
	res, err := proto.Run(adv, seed)
	if err != nil {
		return simExec{}, err // includes termination: sim.ErrNoOutput
	}
	if spans != nil {
		spans.n++
		spans.build += t1.Sub(t0)
		spans.run += time.Since(t1)
	}
	decisions := ba.Decisions(res)
	if len(decisions) != simN-simT {
		return simExec{}, fmt.Errorf("termination: %d of %d honest parties decided", len(decisions), simN-simT)
	}
	ex := simExec{
		rounds: res.Metrics.Rounds,
		msgs:   res.Metrics.TotalHonestMessages(),
		sigs:   res.Metrics.TotalHonestSignatures(),
		bytes:  res.Metrics.TotalHonestBytes(),
	}
	for _, d := range decisions {
		// Honest inputs are 0 and 1, so validity allows exactly those.
		if d != 0 && d != 1 {
			return simExec{}, fmt.Errorf("validity: honest party decided %d, no honest party's input", d)
		}
		if d != decisions[0] {
			ex.disagree = true
		}
	}
	return ex, nil
}

func runSim(seed int64, c counts, trace bool) (*result, error) {
	r := &result{metrics: make(map[string]float64)}
	inputs := make([]ba.Value, simN)
	for i := range inputs {
		inputs[i] = ba.Value(i % 2)
	}
	var setup *ba.Setup
	var setupS []float64
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		var err error
		if setup, err = ba.NewSetup(simN, simT, ba.CoinIdeal, seed); err != nil {
			return nil, err
		}
		for i := 0; i < c.warm; i++ {
			if _, err := simExecute(setup, inputs, seed+int64(k*c.warm+i), nil); err != nil {
				return nil, fmt.Errorf("warm-up %d execution %d: %w", k, i, err)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	r.notef("setup_s: median of %d set-ups %.3f (ba.NewSetup plus %d warm-up executions each)", setups, setupS, c.warm)

	win := &window{}
	if err := win.open(c.measured, trace); err != nil {
		return nil, err
	}
	var (
		spans    simSpans
		total    simExec
		disagree int
		firstErr error
	)
	for i := 0; i < c.measured; i++ {
		var sp *simSpans
		if win.traceOn.Load() {
			sp = &spans
		}
		t0 := time.Now()
		ex, err := simExecute(setup, inputs, seed+int64(setups*c.warm+i), sp)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("execution %d: %w", i, err)
			}
		} else {
			win.latMS = append(win.latMS, ms(time.Since(t0)))
			total.rounds += ex.rounds
			total.msgs += ex.msgs
			total.sigs += ex.sigs
			total.bytes += ex.bytes
			if ex.disagree {
				disagree++
			}
		}
		win.completed()
	}
	if err := win.close(); err != nil {
		return nil, err
	}
	decided := float64(len(win.latMS))
	if err := win.report(r, setupS, float64(total.bytes), float64(total.rounds)/decided); err != nil {
		return nil, fmt.Errorf("%w (first failure: %v)", err, firstErr)
	}
	if firstErr != nil {
		r.violatef("%d of %d executions violated validity or termination, first: %v", r.failed, c.measured, firstErr)
	}
	// Disagreement under this adversary is legal with probability up to
	// 2^-kappa per execution; only a count the bound cannot explain is a
	// violation, and it is not a failed operation.
	bound, err := stats.CheckUpperBound(disagree, len(win.latMS), 1/float64(int(1)<<simKappa), simAlpha)
	if err != nil {
		return nil, err
	}
	r.notef("honest agreement: %s", bound)
	if !bound.Consistent {
		r.violatef("honest disagreement exceeds the 2^-%d bound: %s", simKappa, bound)
	}
	if !trace {
		return r, nil
	}

	m := r.metrics
	per := float64(spans.n)
	m["ba.machine_us_per_decision"] = us(spans.machine) / per
	m["adversary.act_us_per_decision"] = us(spans.adversary) / per
	m["ba.build_us_per_decision"] = us(spans.build) / per
	m["sim.engine_self_us_per_decision"] = us(spans.run-spans.machine-spans.adversary) / per
	m["sim.honest_msgs_per_decision"] = float64(total.msgs) / decided
	m["sim.honest_sigs_per_decision"] = float64(total.sigs) / decided
	m["ba.disagree_count"] = float64(disagree)
	return r, nil
}
