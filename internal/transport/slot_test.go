package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxcensus/internal/proxcensus"
	"proxcensus/internal/validate"
)

// countingIngress is a Config.NewIngress that counts its calls per
// node and screens with validate.General.
func countingIngress(n int, calls []atomic.Int32) func(int) *validate.Validator {
	return func(id int) *validate.Validator {
		calls[id].Add(1)
		return validate.New(validate.General(n))
	}
}

// checkDecided fails the test unless every node decided the expand
// instance's value and grade.
func checkDecided(t *testing.T, inst, rounds int, outs []any, errs []error) {
	t.Helper()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("instance %d node %d: %v", inst, i, errs[i])
		}
		if outs[i].(proxcensus.Result) != expandWant(rounds) {
			t.Fatalf("instance %d node %d: %v, want %v", inst, i, outs[i], expandWant(rounds))
		}
	}
}

// TestSlotsServeSequentialInstances: fifty instances run one after
// another on one hub and four nodes build one screen per node and one
// round scratch on the hub. Each instance admits the same traffic, so
// after k instances a node's merged report admits k times what the
// first did; a screen whose counters survived its slot's reset would be
// merged again after every instance and count more. Eight instances at
// once then build at most eight screens per node.
func TestSlotsServeSequentialInstances(t *testing.T) {
	const n, tc, rounds, sequential, concurrent = 4, 1, 3, 50, 8
	calls := make([]atomic.Int32, n)
	cfg := quickConfig()
	cfg.RoundTimeout = 2 * time.Second // eight concurrent barriers on a busy box
	cfg.NewIngress = countingIngress(n, calls)
	hub, nodes := muxPair(t, n, cfg)
	idle := func() int {
		hub.mu.Lock()
		defer hub.mu.Unlock()
		return len(hub.idle)
	}

	var perInstance int
	for inst := 1; inst <= sequential; inst++ {
		outs, errs := runMuxInstance(t, hub, nodes, inst, rounds, expandMachines(n, tc, rounds, 1))
		checkDecided(t, inst, rounds, outs, errs)
		for id, nd := range nodes {
			admitted := nd.Report().Validation.Admitted
			if inst == 1 && id == 0 {
				perInstance = admitted
			}
			if admitted != inst*perInstance {
				t.Fatalf("after %d instances node %d admitted %d, want %d × %d", inst, id, admitted, inst, perInstance)
			}
		}
	}
	if perInstance == 0 {
		t.Fatal("an instance admitted nothing")
	}
	for id := range calls {
		if got := calls[id].Load(); got != 1 {
			t.Errorf("node %d built %d screens for %d sequential instances, want 1", id, got, sequential)
		}
	}
	if got := idle(); got != 1 {
		t.Errorf("hub keeps %d idle round scratches after %d sequential instances, want 1", got, sequential)
	}

	var wg sync.WaitGroup
	outs := make([][]any, concurrent)
	errs := make([][]error, concurrent)
	for k := range outs {
		inst := sequential + 1 + k
		hi, err := hub.StartInstance(inst, rounds)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = hi.Run()
		}()
		outs[k], errs[k] = make([]any, n), make([]error, n)
		for i, m := range expandMachines(n, tc, rounds, 1) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[k][i], errs[k][i] = nodes[i].RunInstance(inst, rounds, m)
			}()
		}
	}
	wg.Wait()
	for k := range outs {
		checkDecided(t, sequential+1+k, rounds, outs[k], errs[k])
	}
	for id, nd := range nodes {
		if got := calls[id].Load(); got > concurrent {
			t.Errorf("node %d built %d screens for %d concurrent instances, want at most %d", id, got, concurrent, concurrent)
		}
		if got, want := nd.Report().Validation.Admitted, (sequential+concurrent)*perInstance; got != want {
			t.Errorf("node %d admitted %d over all instances, want %d", id, got, want)
		}
	}
	if got := idle(); got > concurrent {
		t.Errorf("hub keeps %d idle round scratches, want at most %d", got, concurrent)
	}
}

// TestSlotReuseScreensAfresh: a one-round instance leaves its slot's
// screen at round 1 with every sender's round-1 echo in its slots; the
// next instance, three rounds long, opens with the very same echoes.
// A screen that kept its round or its sender slots across the reset
// would take them for duplicates or equivocations and reject them.
func TestSlotReuseScreensAfresh(t *testing.T) {
	const n, tc = 4, 1
	hub, nodes := muxPair(t, n, quickConfig())
	for inst, rounds := range []int{1, 3} {
		outs, errs := runMuxInstance(t, hub, nodes, inst+1, rounds, expandMachines(n, tc, rounds, 1))
		checkDecided(t, inst+1, rounds, outs, errs)
	}
	for id, nd := range nodes {
		v := nd.Report().Validation
		if v.TotalRejected() != 0 {
			t.Errorf("node %d: the reused screen rejected honest traffic: %s", id, v.Summary())
		}
		if v.Admitted != n*(1+3) {
			t.Errorf("node %d admitted %d, want %d", id, v.Admitted, n*(1+3))
		}
	}
}

// TestIdleSlotsHoldNoFrame: once an instance has ended, its node slots
// and the hub's round scratch hold no reference into a frame — the
// frames went back to the free lists, and an idle slot may sit for
// long.
func TestIdleSlotsHoldNoFrame(t *testing.T) {
	const n, tc, rounds = 4, 1, 3
	hub, nodes := muxPair(t, n, quickConfig())
	outs, errs := runMuxInstance(t, hub, nodes, 1, rounds, expandMachines(n, tc, rounds, 1))
	checkDecided(t, 1, rounds, outs, errs)
	for id, nd := range nodes {
		nd.mu.Lock()
		slots := append([]*instanceRun(nil), nd.slots...)
		nd.mu.Unlock()
		if len(slots) != 1 {
			t.Fatalf("node %d keeps %d idle slots, want 1", id, len(slots))
		}
		ir := slots[0]
		for i, m := range ir.in[:cap(ir.in)] {
			if m.Raw != nil || m.Payload != nil {
				t.Errorf("node %d: idle slot's receive entry %d still holds a message", id, i)
			}
		}
		for i, m := range ir.inbox[:cap(ir.inbox)] {
			if m.Payload != nil {
				t.Errorf("node %d: idle slot's inbox entry %d still holds a payload", id, i)
			}
		}
		if cap(ir.in) == 0 || cap(ir.inbox) == 0 {
			t.Errorf("node %d: idle slot dropped its receive scratch", id)
		}
	}
	hub.mu.Lock()
	defer hub.mu.Unlock()
	if len(hub.idle) != 1 {
		t.Fatalf("hub keeps %d idle round scratches, want 1", len(hub.idle))
	}
	s := hub.idle[0]
	for id := range s.batches {
		if s.batches[id] != nil || s.deliveries[id] != nil {
			t.Errorf("idle hub scratch still holds node %d's frame or delivery", id)
		}
		for i, m := range s.inboxes[id][:cap(s.inboxes[id])] {
			if m.Payload != nil {
				t.Errorf("idle hub scratch: node %d's inbox entry %d still aliases a frame", id, i)
			}
		}
	}
}

// TestIdleScratchKeepBound: scratch that grew past slotKeepMax entries
// is dropped when its slot goes idle; scratch within the bound is kept,
// emptied to its capacity.
func TestIdleScratchKeepBound(t *testing.T) {
	big := make([]validate.Inbound, slotKeepMax+1)
	if idleScratch(big) != nil {
		t.Error("scratch past the keep bound was kept")
	}
	small := make([]validate.Inbound, 3, 8)
	small[:8][7].Raw = []byte{1}
	kept := idleScratch(small)
	if len(kept) != 0 || cap(kept) != 8 || kept[:8][7].Raw != nil {
		t.Errorf("scratch within the bound: len %d cap %d, last entry %v; want emptied and kept", len(kept), cap(kept), kept[:8][7])
	}
}
