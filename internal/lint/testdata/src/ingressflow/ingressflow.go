// Package ingressflow exercises the ingressflow analyzer: wire-decoded
// payloads must pass validate.AdmitBatch before reaching a Machine
// Deliver/Step; deliberate bypasses carry //lint:trusted.
package ingressflow

import (
	"proxcensus/internal/sim"
	"proxcensus/internal/validate"
	"proxcensus/internal/wire"
)

// machine is a concrete sim.Machine implementation acting as the sink.
type machine struct{}

func (machine) Start() []sim.Send                              { return nil }
func (machine) Deliver(round int, in []sim.Message) []sim.Send { return nil }
func (machine) Output() (any, bool)                            { return nil, false }

var _ sim.Machine = machine{}

// unscreened feeds raw decode output straight to the machine.
func unscreened(m machine, raw []byte) {
	p, err := wire.Decode(raw)
	_ = err
	m.Deliver(1, []sim.Message{{Payload: p}}) // want "without passing validate.AdmitBatch"
}

// screened admits the payload first, as a batch of one: the AdmitBatch
// call dominates the delivery, so the flow is clean.
func screened(m machine, v *validate.Validator, raw []byte) {
	p, err := wire.Decode(raw)
	in := []validate.Inbound{{Raw: raw, Payload: p, Err: err}}
	if !v.AdmitBatch(1, in, nil)[0] {
		return
	}
	m.Deliver(1, []sim.Message{{Payload: in[0].Payload}})
}

// branchScreen admits on only one branch: the screen does not dominate
// the sink, so the taint survives.
func branchScreen(m machine, v *validate.Validator, raw []byte, fast bool) {
	p, err := wire.Decode(raw)
	in := []validate.Inbound{{Raw: raw, Payload: p, Err: err}}
	if !fast {
		if !v.AdmitBatch(1, in, nil)[0] {
			return
		}
	}
	m.Deliver(1, []sim.Message{{Payload: in[0].Payload}}) // want "without passing validate.AdmitBatch"
}

// screenedOther screens the batch and delivers the variable it was
// built from: a screen covers only what its arguments mention.
func screenedOther(m machine, v *validate.Validator, raw []byte) {
	p, err := wire.Decode(raw)
	in := []validate.Inbound{{Raw: raw, Payload: p, Err: err}}
	if !v.AdmitBatch(1, in, nil)[0] {
		return
	}
	m.Deliver(1, []sim.Message{{Payload: p}}) // want "without passing validate.AdmitBatch"
}

// decode is a helper returning raw decode output: its result summary
// carries the taint to callers.
func decode(raw []byte) sim.Payload {
	p, _ := wire.Decode(raw)
	return p
}

// viaHelper shows the summary crossing the helper boundary.
func viaHelper(m machine, raw []byte) {
	p := decode(raw)
	m.Deliver(1, []sim.Message{{Payload: p}}) // want "without passing validate.AdmitBatch"
}

// ifaceSink delivers through the interface rather than a concrete
// machine: still a sink.
func ifaceSink(m sim.Machine, raw []byte) {
	p := decode(raw)
	m.Deliver(1, []sim.Message{{Payload: p}}) // want "without passing validate.AdmitBatch"
}

// replay is an attacker harness that bypasses the screen on purpose.
//
//lint:trusted
func replay(m machine, raw []byte) {
	p := decode(raw)
	m.Deliver(1, []sim.Message{{Payload: p}})
}

// lineTrusted opts a single delivery out.
func lineTrusted(m machine, raw []byte) {
	p := decode(raw)
	//lint:trusted chaos schedule replays raw frames by design
	m.Deliver(1, []sim.Message{{Payload: p}})
}

// untainted payloads — built locally, never decoded — are free to flow.
func untainted(m machine, p sim.Payload) {
	m.Deliver(1, []sim.Message{{Payload: p}})
}

// node mirrors the transport's pooled receive shape: decode output
// accumulates into node-owned scratch before the batched screen.
type node struct {
	in    []validate.Inbound
	inbox []sim.Message
}

// batchScreened is the transport receive-loop shape: the AdmitBatch
// call screens the accumulated scratch (its arguments mention the
// node), dominating the inbox build and the delivery, so the flow is
// clean.
func batchScreened(m machine, v *validate.Validator, nd *node, raws [][]byte) {
	nd.in = nd.in[:0]
	for _, raw := range raws {
		p, err := wire.Decode(raw)
		nd.in = append(nd.in, validate.Inbound{Raw: raw, Payload: p, Err: err})
	}
	verdicts := v.AdmitBatch(1, nd.in, nil)
	nd.inbox = nd.inbox[:0]
	for i := range nd.in {
		if !verdicts[i] {
			continue
		}
		nd.inbox = append(nd.inbox, sim.Message{Payload: nd.in[i].Payload})
	}
	m.Deliver(1, nd.inbox)
}

// instanceRun mirrors the mux transport's per-instance scratch: lane
// batches decoded from instance-tagged frames re-decode through the
// interning Decoder before the batched screen.
type instanceRun struct {
	dec   *wire.Decoder
	in    []validate.Inbound
	inbox []sim.Message
}

// laneScreened is the mux instance-loop shape: an instance-tagged
// frame decodes into lane messages, the per-instance AdmitBatch
// screens the accumulated scratch, and only admitted payloads reach
// the machine.
func laneScreened(m machine, v *validate.Validator, ir *instanceRun, frame []byte) {
	_, round, msgs, err := wire.DecodeTaggedBatch(frame)
	if err != nil {
		return
	}
	ir.in = ir.in[:0]
	for i := range msgs {
		p, derr := ir.dec.Decode(msgs[i].Payload)
		ir.in = append(ir.in, validate.Inbound{From: msgs[i].Addr, Raw: msgs[i].Payload, Payload: p, Err: derr})
	}
	verdicts := v.AdmitBatch(round, ir.in, nil)
	ir.inbox = ir.inbox[:0]
	for i := range ir.in {
		if !verdicts[i] {
			continue
		}
		ir.inbox = append(ir.inbox, sim.Message{Payload: ir.in[i].Payload})
	}
	m.Deliver(round, ir.inbox)
}

// laneSieved strips the per-instance screen down to DecodeOnly: lane
// messages from tagged frames reach the machine unscreened.
func laneSieved(m machine, ir *instanceRun, frame []byte) {
	_, round, msgs, err := wire.DecodeTaggedBatch(frame)
	if err != nil {
		return
	}
	ir.in = ir.in[:0]
	for i := range msgs {
		p, derr := ir.dec.Decode(msgs[i].Payload)
		ir.in = append(ir.in, validate.Inbound{From: msgs[i].Addr, Raw: msgs[i].Payload, Payload: p, Err: derr})
	}
	verdicts := validate.DecodeOnly(ir.in, nil)
	ir.inbox = ir.inbox[:0]
	for i := range ir.in {
		if !verdicts[i] {
			continue
		}
		ir.inbox = append(ir.inbox, sim.Message{Payload: ir.in[i].Payload})
	}
	m.Deliver(round, ir.inbox) // want "without passing validate.AdmitBatch"
}

// decodeSieved swaps the screen for DecodeOnly, which only checks that
// bytes parsed: not a screen, so the taint reaches the sink.
func decodeSieved(m machine, nd *node, raws [][]byte) {
	nd.in = nd.in[:0]
	for _, raw := range raws {
		p, err := wire.Decode(raw)
		nd.in = append(nd.in, validate.Inbound{Raw: raw, Payload: p, Err: err})
	}
	verdicts := validate.DecodeOnly(nd.in, nil)
	nd.inbox = nd.inbox[:0]
	for i := range nd.in {
		if !verdicts[i] {
			continue
		}
		nd.inbox = append(nd.inbox, sim.Message{Payload: nd.in[i].Payload})
	}
	m.Deliver(1, nd.inbox) // want "without passing validate.AdmitBatch"
}
