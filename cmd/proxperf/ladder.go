package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"proxcensus/internal/ba"
	"proxcensus/internal/service"
	"proxcensus/internal/sim"
	"proxcensus/internal/transport"
	"proxcensus/internal/validate"
	"proxcensus/internal/wire"
)

// The layer ladder runs the workload's instance shape one instance at a
// time through five rungs, each adding one layer through its exported
// API: 0 the machines alone, 1 plus the frame codec and the ingress
// screen in memory, 2 plus the mux transport over loopback, 3 through
// service.Submit, 4 through the client API. A layer's time is its
// rung's median minus the median of the rung below, so the layers sum
// to ladder.total_us by construction.

// ladderLeadIn is how many untimed instances of each rung open a group.
const ladderLeadIn = 5

// ladder holds one climb's fixed inputs and scratch.
type ladder struct {
	w     svcWorkload
	setup *ba.Setup
	seed  int64
	// Rung 2's own hub and nodes: the service does not export its own.
	hub   *transport.MuxHub
	nodes []*transport.MuxNode
	cl    *cluster

	// spans are the current instance's child spans: the machines' in rung
	// 0, the codec's and the screen's in rung 1.
	spans ladderSpans
}

type ladderSpans struct {
	machine, encode, decode, admit time.Duration
	// frameBytes counts rung 1's frames with their length prefixes.
	frameBytes int
}

// ingressRules is the screen service.New installs per instance.
func ingressRules(cfg service.Config) validate.Rules {
	maxPayload := cfg.MaxPayload
	if maxPayload == 0 {
		maxPayload = service.DefaultMaxPayload
	}
	return validate.ForPayloadService(cfg.N, cfg.Batch*(maxPayload+8))
}

// proposal returns instance i's client proposal: an int or a payload.
func (l *ladder) proposal(i int) (int, []byte) {
	if l.w.payload > 0 {
		return 0, proposalPayload(l.seed, i, l.w.payload)
	}
	return proposalValue(l.seed, i), nil
}

// build instantiates the machines the service would for a batch of one
// proposal: every party inputs the same batch.
func (l *ladder) build(i int) (*ba.Protocol, error) {
	n := l.w.cfg.N
	value, payload := l.proposal(i)
	if payload == nil {
		inputs := make([]ba.Value, n)
		for p := range inputs {
			inputs[p] = ba.Value(value)
		}
		return ba.NewMultivaluedOneShot(l.setup, l.w.cfg.Kappa, inputs, 0)
	}
	// The service frames a payload batch as length-prefixed segments.
	batch := binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(payload)), uint64(len(payload)))
	batch = append(batch, payload...)
	inputs := make([][]byte, n)
	for p := range inputs {
		inputs[p] = batch
	}
	return ba.NewMultivaluedPayloadOneShot(l.setup, l.w.cfg.Kappa, inputs, nil)
}

// checkOutputs verifies that all parties decided the one input.
func (l *ladder) checkOutputs(i int, outs []any) error {
	value, payload := l.proposal(i)
	for p, o := range outs {
		switch d := o.(type) {
		case ba.Value:
			if payload != nil || int(d) != value {
				return fmt.Errorf("ladder instance %d: party %d decided %d, want %d", i, p, d, value)
			}
		case []byte:
			if payload == nil || len(d) < 8 || !bytes.Equal(d[8:], payload) {
				return fmt.Errorf("ladder instance %d: party %d decided %d bytes that are not the proposed batch", i, p, len(d))
			}
		default:
			return fmt.Errorf("ladder instance %d: party %d produced %T", i, p, o)
		}
	}
	return nil
}

// lockstep is the benchmark's own synchronous round loop: it steps the
// machines through proto.Rounds rounds, handing each round's sends to
// exchange, which returns every party's inbox.
func lockstep(proto *ba.Protocol, exchange func(round int, sends [][]sim.Send) ([][]sim.Message, error)) ([]any, error) {
	sends := make([][]sim.Send, proto.N)
	for p, m := range proto.Machines {
		sends[p] = m.Start()
	}
	for round := 1; round <= proto.Rounds; round++ {
		inboxes, err := exchange(round, sends)
		if err != nil {
			return nil, err
		}
		for p, m := range proto.Machines {
			sends[p] = m.Deliver(round, inboxes[p])
		}
	}
	outs := make([]any, proto.N)
	for p, m := range proto.Machines {
		out, ok := m.Output()
		if !ok {
			return nil, fmt.Errorf("party %d produced no output", p)
		}
		outs[p] = out
	}
	return outs, nil
}

// rung0 is the machines alone: sends are routed in memory.
func (l *ladder) rung0(i int) error {
	proto, err := l.build(i)
	if err != nil {
		return err
	}
	t0 := time.Now()
	n := proto.N
	inboxes := make([][]sim.Message, n)
	outs, err := lockstep(proto, func(round int, sends [][]sim.Send) ([][]sim.Message, error) {
		for p := range inboxes {
			inboxes[p] = inboxes[p][:0]
		}
		for from, ss := range sends {
			for _, s := range ss {
				if s.To == sim.Broadcast {
					for to := 0; to < n; to++ {
						inboxes[to] = append(inboxes[to], sim.Message{From: from, To: to, Round: round, Payload: s.Payload})
					}
				} else if s.To >= 0 && s.To < n {
					inboxes[s.To] = append(inboxes[s.To], sim.Message{From: from, To: s.To, Round: round, Payload: s.Payload})
				}
			}
		}
		return inboxes, nil
	})
	l.spans.machine = time.Since(t0)
	if err != nil {
		return err
	}
	return l.checkOutputs(i, outs)
}

// rung1 adds the frame codec and the ingress screen, in memory, through
// the entry points the mux uses: a node encodes its sends into a tagged
// batch, the hub decodes it capped, routes, and encodes one delivery
// per node, and the node decodes that, decodes each payload, screens
// the batch and steps its machine.
func (l *ladder) rung1(inst int) error {
	proto, err := l.build(inst)
	if err != nil {
		return err
	}
	n := proto.N
	ingress := make([]*validate.Validator, n)
	decoders := make([]*wire.Decoder, n)
	for p := 0; p < n; p++ {
		ingress[p] = validate.New(ingressRules(l.w.cfg))
		decoders[p] = wire.NewDecoder()
	}
	var (
		arena, frame []byte
		batch        []wire.BatchMsg
		routed       = make([][]wire.BatchMsg, n)
		in           []validate.Inbound
		verdicts     []bool
		inboxes      = make([][]sim.Message, n)
	)
	outs, err := lockstep(proto, func(round int, sends [][]sim.Send) ([][]sim.Message, error) {
		for p := range routed {
			routed[p] = routed[p][:0]
		}
		for from, ss := range sends {
			t0 := time.Now()
			arena, batch = arena[:0], batch[:0]
			for _, s := range ss {
				start := len(arena)
				var err error
				if arena, err = wire.AppendEncode(arena, s.Payload); err != nil {
					return nil, err
				}
				batch = append(batch, wire.BatchMsg{Addr: s.To, Payload: arena[start:len(arena):len(arena)]})
			}
			var err error
			if frame, err = wire.AppendEncodeTaggedBatch(frame[:0], inst, round, batch); err != nil {
				return nil, err
			}
			t1 := time.Now()
			l.spans.encode += t1.Sub(t0)
			l.spans.frameBytes += 4 + len(frame)
			_, _, msgs, dropped, err := wire.DecodeTaggedBatchCapped(frame, transport.DefaultFloodLimit)
			if err != nil || dropped > 0 {
				return nil, fmt.Errorf("hub decode of party %d's frame: dropped %d, err %v", from, dropped, err)
			}
			l.spans.decode += time.Since(t1)
			for _, m := range msgs {
				if m.Addr == sim.Broadcast {
					for to := 0; to < n; to++ {
						routed[to] = append(routed[to], wire.BatchMsg{Addr: from, Payload: m.Payload})
					}
				} else if m.Addr >= 0 && m.Addr < n {
					routed[m.Addr] = append(routed[m.Addr], wire.BatchMsg{Addr: from, Payload: m.Payload})
				}
			}
		}
		for to := 0; to < n; to++ {
			t0 := time.Now()
			var err error
			if frame, err = wire.AppendEncodeTaggedBatch(frame[:0], inst, round, routed[to]); err != nil {
				return nil, err
			}
			t1 := time.Now()
			l.spans.encode += t1.Sub(t0)
			l.spans.frameBytes += 4 + len(frame)
			_, _, msgs, err := wire.DecodeTaggedBatch(frame)
			if err != nil {
				return nil, err
			}
			in = in[:0]
			for i := range msgs {
				payload, err := decoders[to].Decode(msgs[i].Payload)
				in = append(in, validate.Inbound{From: msgs[i].Addr, Raw: msgs[i].Payload, Payload: payload, Err: err})
			}
			t2 := time.Now()
			l.spans.decode += t2.Sub(t1)
			verdicts = ingress[to].AdmitBatch(round, in, verdicts[:0])
			l.spans.admit += time.Since(t2)
			inboxes[to] = inboxes[to][:0]
			for i := range in {
				if verdicts[i] {
					inboxes[to] = append(inboxes[to], sim.Message{From: in[i].From, To: to, Round: round, Payload: in[i].Payload})
				}
			}
		}
		return inboxes, nil
	})
	if err != nil {
		return err
	}
	for _, v := range ingress {
		if rej := v.Report().TotalRejected(); rej > 0 {
			return fmt.Errorf("the ingress screen rejected %d honest messages of instance %d", rej, inst)
		}
	}
	return l.checkOutputs(inst, outs)
}

// rung2 adds the mux transport: one hub instance and n node instances
// over loopback connections, driven as service.decide drives them.
func (l *ladder) rung2(inst int) error {
	proto, err := l.build(inst)
	if err != nil {
		return err
	}
	hi, err := l.hub.StartInstance(inst, proto.Rounds)
	if err != nil {
		return err
	}
	hubDone := make(chan error, 1)
	go func() { hubDone <- hi.Run() }()
	outs := make([]any, proto.N)
	errs := make([]error, proto.N)
	var wg sync.WaitGroup
	for p := range l.nodes {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			outs[p], errs[p] = l.nodes[p].RunInstance(inst, proto.Rounds, proto.Machines[p])
		}(p)
	}
	wg.Wait()
	if err := <-hubDone; err != nil {
		return err
	}
	for p, err := range errs {
		if err != nil {
			return fmt.Errorf("party %d: %w", p, err)
		}
	}
	return l.checkOutputs(inst, outs)
}

// rung3 goes through the service core: Submit to Ticket.Wait.
func (l *ladder) rung3(i int) error {
	value, payload := l.proposal(i)
	var tk *service.Ticket
	var err error
	if payload != nil {
		tk, err = l.cl.svc.SubmitPayload(payload)
	} else {
		tk, err = l.cl.svc.Submit(ba.Value(value))
	}
	if err != nil {
		return err
	}
	d := tk.Wait()
	if !d.Committed || (payload != nil && !bytes.Equal(d.Payload, payload)) {
		return fmt.Errorf("ladder instance %d through Submit: committed=%v err=%v", i, d.Committed, d.Err)
	}
	return nil
}

// rung4 goes through the client API over loopback.
func (l *ladder) rung4(i int) error {
	value, payload := l.proposal(i)
	var ch <-chan service.Result
	var err error
	if payload != nil {
		ch, err = l.cl.clients[0].ProposePayload(payload)
	} else {
		ch, err = l.cl.clients[0].Propose(value)
	}
	if err != nil {
		return err
	}
	res := <-ch
	if !res.Decided || !res.Committed || (payload != nil && !bytes.Equal(res.Payload, payload)) {
		return fmt.Errorf("ladder instance %d through the API: decided=%v committed=%v err=%q", i, res.Decided, res.Committed, res.Err)
	}
	return nil
}

// climbLadder runs iters instances per rung on the idle cluster and
// writes the ladder's per-layer metrics into r.
func climbLadder(r *result, w svcWorkload, cl *cluster, seed int64, iters int) error {
	n := w.cfg.N
	setup, err := ba.NewSetup(n, w.cfg.T, ba.CoinIdeal, seed)
	if err != nil {
		return err
	}
	l := &ladder{w: w, setup: setup, seed: seed, cl: cl}
	tcfg := transport.Config{NewIngress: func(int) *validate.Validator { return validate.New(ingressRules(w.cfg)) }}
	if l.hub, err = transport.NewMuxHub(n, tcfg); err != nil {
		return err
	}
	defer func() { _ = l.hub.Close() }()
	for p := 0; p < n; p++ {
		nd, err := transport.NewMuxNode(l.hub.Addr(), p, tcfg)
		if err != nil {
			return err
		}
		defer func() { _ = nd.Close() }()
		l.nodes = append(l.nodes, nd)
	}
	if err := l.hub.AwaitNodes(transport.DefaultConfig().JoinTimeout); err != nil {
		return err
	}

	// Every rung's time includes building the machines, as the service
	// does inside rungs 3 and 4. The single-threaded rungs 0 and 1 take
	// turns instance by instance, then the concurrent rungs 2 to 4 do, so
	// drift lands on neighbours alike; mixed, the first concurrent rung
	// after a single-threaded one paid for waking the second core and came
	// out slower than the rungs above it. Each group opens with untimed
	// lead-in rounds.
	rungs := []func(i int) error{l.rung0, l.rung1, l.rung2, l.rung3, l.rung4}
	var total [5][]float64
	var machine, encode, decode, admit []float64
	next, frameBytes := 0, 0
	for _, group := range [][]int{{0, 1}, {2, 3, 4}} {
		for j := -ladderLeadIn; j < iters; j++ {
			for _, k := range group {
				l.spans = ladderSpans{}
				t0 := time.Now()
				if err := rungs[k](next); err != nil {
					return fmt.Errorf("ladder rung %d instance %d: %w", k, next, err)
				}
				d := time.Since(t0)
				next++
				if j < 0 {
					continue
				}
				total[k] = append(total[k], us(d))
				switch k {
				case 0:
					machine = append(machine, us(l.spans.machine))
				case 1:
					frameBytes += l.spans.frameBytes
					encode = append(encode, us(l.spans.encode))
					decode = append(decode, us(l.spans.decode))
					admit = append(admit, us(l.spans.admit))
				}
			}
		}
	}
	var rep validate.Report
	for _, nd := range l.nodes {
		if v := nd.Report().Validation; v != nil {
			rep.Merge(*v)
		}
	}

	var med [5]float64
	for k := range total {
		med[k] = median(total[k])
	}
	// Rung 1 adds three layers at once; its step is shared out in
	// proportion to the spans measured inside it.
	enc, dec, adm := median(encode), median(decode), median(admit)
	step1 := (med[1] - med[0]) / (enc + dec + adm)
	m := r.metrics
	m["ba.machine_us_per_instance"] = median(machine)
	m["ba.build_us_per_instance"] = med[0] - median(machine)
	m["wire.encode_us_per_instance"] = enc * step1
	m["wire.decode_us_per_instance"] = dec * step1
	m["validate.admit_us_per_instance"] = adm * step1
	m["wire.frame_bytes_per_instance"] = float64(frameBytes) / float64(len(encode))
	m["validate.rejected_per_instance"] = float64(rep.TotalRejected()) / float64(iters)
	m["transport.instance_us"] = med[2]
	m["transport.self_us_per_instance"] = med[2] - med[1]
	m["service.core_us"] = med[3] - med[2]
	m["service.api_us"] = med[4] - med[3]
	m["ladder.total_us"] = med[4]
	r.notef("ladder: %d instances per rung, rung medians %.1f us; raw rung-1 spans encode %.1f, decode %.1f, admit %.1f us",
		iters, med, enc, dec, adm)
	if rej := rep.TotalRejected(); rej > 0 {
		r.violatef("ladder: the mux ingress screen rejected %d honest messages", rej)
	}
	return nil
}
