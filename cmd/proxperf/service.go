package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"proxcensus/internal/ba"
	"proxcensus/internal/service"
)

// The service workloads run service, API listener and load generator in
// one process. Message delay between nodes is zero (loopback; MuxHub has
// no injector), so latency is processor time only, and the runs are
// fault-free because the mux path has no FaultInjector yet.

const (
	// conns is the number of client connections, one generator goroutine
	// each: the dev box has two cores.
	conns = 2
	// depth is how many proposals a closed-loop connection keeps
	// pipelined. 2*32 outstanding >= 2*Batch*MaxActive, so every
	// instance finds a full batch waiting.
	depth = 32
	// openRate is the open loop's proposals per second, about 42 % of
	// two cores at n=4. 400/s let the CPUs idle and cpu_ms_per_decision
	// jumped 45 % between runs.
	openRate = 800
	// lateLimit and lateShare invalidate an open-loop run whose
	// generator fell behind its schedule.
	lateLimit = 5 * time.Millisecond
	lateShare = 0.10
	// minBatchFill invalidates a closed-loop run whose instances ran
	// partly empty: per-instance cost would be divided by a moving fill.
	// Windows under minFillWindow proposals are exempt: the partial
	// batches while the pipeline fills and drains dominate them.
	minBatchFill  = 3.9
	minFillWindow = 100 * conns * depth
)

// svcWorkload is the shape of one service workload.
type svcWorkload struct {
	cfg service.Config
	// payload is the proposal size in bytes; 0 proposes ints.
	payload int
	// rate is the open loop's proposals per second; 0 is the closed loop.
	rate float64
}

var (
	cluster16       = service.Config{N: 16, T: 5, Kappa: 2, Batch: 4, MaxActive: 8}
	svcDigestN16    = svcWorkload{cfg: cluster16}
	svcPayload4kN16 = svcWorkload{cfg: cluster16, payload: 4096}
	// The box stalls the whole process for 100-300 ms now and then. An
	// open loop's queue grows meanwhile: MaxPending holds five seconds of
	// arrivals, so a stall answers late instead of shedding, and Batch is
	// 1, so the backlog is not folded into shared instances — with Batch 4
	// the stalls of a bad half hour moved bytes and allocation per
	// decision by 6 %.
	svcOpenN4 = svcWorkload{cfg: service.Config{N: 4, T: 1, Kappa: 2, Batch: 1, MaxActive: 8, MaxPending: 4096}, rate: openRate}
)

// cluster is a running service with its API listener and client
// connections.
type cluster struct {
	svc     *service.Service
	ln      net.Listener
	served  chan error
	clients []*service.Client
}

func startCluster(cfg service.Config) (*cluster, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	c := &cluster{svc: svc, served: make(chan error, 1)}
	if c.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		_ = svc.Close()
		return nil, err
	}
	go func() { c.served <- svc.ServeAPI(c.ln) }()
	for i := 0; i < conns; i++ {
		cl, err := service.DialClient(c.ln.Addr().String())
		if err != nil {
			_ = c.close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

// close tears the cluster down and waits for the accept loop to end.
func (c *cluster) close() error {
	for _, cl := range c.clients {
		_ = cl.Close()
	}
	err := c.ln.Close()
	if serr := <-c.served; err == nil {
		err = serr
	}
	if cerr := c.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// pending is one proposal in flight.
type pending struct {
	ch      <-chan service.Result
	payload []byte
	// from is when latency starts: the issue time in the closed loop,
	// the due time in the open loop.
	from time.Time
}

// connStats is what one connection's goroutine saw; merged after the
// goroutines end, so nothing is shared while they run.
type connStats struct {
	latMS    []float64
	serverMS []float64
	failed   int
	firstErr string
}

func (s *connStats) fail(format string, args ...any) {
	s.failed++
	if s.firstErr == "" {
		s.firstErr = fmt.Sprintf(format, args...)
	}
}

// loadgen issues one window's proposals and verifies every answer.
type loadgen struct {
	w       svcWorkload
	seed    int64
	clients []*service.Client
	// base offsets the proposal index so the warm-ups and the measured
	// window propose distinct values.
	base, total int
	next        atomic.Int64
	win         *window // nil during warm-up
}

// splitmix64 is the seeded generator behind proposal values and payload
// bytes: stateless, so proposal i is the same whichever goroutine
// issues it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// proposalValue is proposal i's int: always ten digits, so the API line
// length does not depend on the seed.
func proposalValue(seed int64, i int) int {
	return 1_000_000_000 + int(splitmix64(uint64(seed)^uint64(i)<<20)%1_000_000_000)
}

// proposalPayload is proposal i's payload bytes.
func proposalPayload(seed int64, i, size int) []byte {
	b := make([]byte, size+7)
	x := uint64(seed) ^ uint64(i)<<20
	for off := 0; off < size; off += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(b[off:], x)
	}
	return b[:size]
}

// propose pipelines proposal i on c.
func (g *loadgen) propose(c *service.Client, i int) (pending, error) {
	p := pending{from: time.Now()}
	var err error
	if g.w.payload > 0 {
		p.payload = proposalPayload(g.seed, g.base+i, g.w.payload)
		p.ch, err = c.ProposePayload(p.payload)
	} else {
		p.ch, err = c.Propose(proposalValue(g.seed, g.base+i))
	}
	return p, err
}

// settle verifies one answer: decided, committed, and for a payload the
// decided bytes equal to the proposed ones. Anything else — shed,
// errored, uncommitted, mismatched — is a failure.
func (g *loadgen) settle(st *connStats, p pending, res service.Result, at time.Time) {
	switch {
	case res.Busy:
		st.fail("reqid %s shed by admission control", res.ReqID)
	case !res.Decided || !res.Committed:
		st.fail("reqid %s: decided=%v committed=%v err=%q", res.ReqID, res.Decided, res.Committed, res.Err)
	case p.payload != nil && !bytes.Equal(res.Payload, p.payload):
		st.fail("reqid %s: decided payload is %d bytes and differs from the %d proposed", res.ReqID, len(res.Payload), len(p.payload))
	default:
		st.latMS = append(st.latMS, ms(at.Sub(p.from)))
		st.serverMS = append(st.serverMS, ms(res.Latency))
	}
	if g.win != nil {
		g.win.completed()
	}
}

// connLoop owns one connection's proposals in flight. In the closed
// loop (depth > 0, nil inbox) it keeps depth proposals pipelined,
// issuing the next the moment one completes; in the open loop it
// collects what the pacer issued and handed over on inbox. Answers
// arrive on one channel per proposal, so it waits on all of them at
// once with reflect.Select rather than parking a goroutine on each.
func (g *loadgen) connLoop(c *service.Client, inbox <-chan pending, depth int, st *connStats) {
	cases := make([]reflect.SelectCase, 1, depth+1)
	cases[0].Dir = reflect.SelectRecv // zero Chan: ignored by Select
	inboxOpen := inbox != nil
	if inboxOpen {
		cases[0].Chan = reflect.ValueOf(inbox)
	}
	var open []pending
	add := func(p pending) {
		open = append(open, p)
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(p.ch)})
	}
	issue := func() {
		i := int(g.next.Add(1)) - 1
		if i >= g.total {
			return
		}
		p, err := g.propose(c, i)
		if err != nil {
			st.fail("propose: %v", err)
			if g.win != nil {
				g.win.completed()
			}
			return
		}
		add(p)
	}
	for k := 0; k < depth; k++ {
		issue()
	}
	for inboxOpen || len(open) > 0 {
		i, v, ok := reflect.Select(cases)
		if i == 0 {
			if !ok {
				inboxOpen = false
				cases[0].Chan = reflect.Value{}
				continue
			}
			add(v.Interface().(pending))
			continue
		}
		at := time.Now()
		p := open[i-1]
		last := len(open) - 1
		open[i-1], cases[i] = open[last], cases[last+1]
		open, cases = open[:last], cases[:last+1]
		g.settle(st, p, v.Interface().(service.Result), at)
		if depth > 0 {
			issue()
		}
	}
}

// run issues g.total proposals and returns the merged per-connection
// record plus, in the open loop, how late each proposal was issued.
func (g *loadgen) run() (connStats, []float64) {
	// One record per connection goroutine plus one for the pacer.
	stats := make([]connStats, len(g.clients)+1)
	pacer := &stats[len(g.clients)]
	var wg sync.WaitGroup
	var lateMS []float64
	if g.w.rate == 0 {
		for k, c := range g.clients {
			wg.Add(1)
			go func(c *service.Client, st *connStats) {
				defer wg.Done()
				g.connLoop(c, nil, depth, st)
			}(c, &stats[k])
		}
	} else {
		// The pacer is keyed to the start time, not the previous send: a
		// stalled Propose does not slow the schedule.
		inboxes := make([]chan pending, len(g.clients))
		for k, c := range g.clients {
			// Room for every proposal a collector could fall behind by
			// while it handles one answer; the pacer must never block.
			inboxes[k] = make(chan pending, 256)
			wg.Add(1)
			go func(c *service.Client, in <-chan pending, st *connStats) {
				defer wg.Done()
				g.connLoop(c, in, 0, st)
			}(c, inboxes[k], &stats[k])
		}
		lateMS = make([]float64, 0, g.total)
		start := time.Now()
		for i := 0; i < g.total; i++ {
			due := start.Add(time.Duration(float64(i) / g.w.rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			k := i % len(g.clients)
			p, err := g.propose(g.clients[k], i)
			lateMS = append(lateMS, ms(p.from.Sub(due)))
			if err != nil {
				pacer.fail("propose: %v", err)
				if g.win != nil {
					g.win.completed()
				}
				continue
			}
			p.from = due
			inboxes[k] <- p
		}
		for _, in := range inboxes {
			close(in)
		}
	}
	wg.Wait()
	var all connStats
	for _, st := range stats {
		all.latMS = append(all.latMS, st.latMS...)
		all.serverMS = append(all.serverMS, st.serverMS...)
		all.failed += st.failed
		if all.firstErr == "" {
			all.firstErr = st.firstErr
		}
	}
	return all, lateMS
}

// sampler reads the service's queue and concurrency once a millisecond
// while the window says the segment is traced.
type sampler struct {
	stop            chan struct{}
	done            chan struct{}
	n               int
	active, pending float64
}

func startSampler(svc *service.Service, win *window) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if !win.traceOn.Load() {
					continue
				}
				st := svc.Stats()
				s.n++
				s.active += float64(st.Active)
				s.pending += float64(st.Pending)
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// run is the workload: set up and warm up the cluster (setups times,
// keeping the last), measure the window, check it, and in a traced run
// climb the layer ladder on the idle cluster.
func (w svcWorkload) run(seed int64, c counts, trace bool) (*result, error) {
	w.cfg.Seed = seed
	r := &result{metrics: make(map[string]float64)}
	var cl *cluster
	var setupS []float64
	for k := 0; k < setups; k++ {
		if cl != nil {
			if err := cl.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if cl, err = startCluster(w.cfg); err != nil {
			return nil, err
		}
		warm := &loadgen{w: w, seed: seed, clients: cl.clients, base: k * c.warm, total: c.warm}
		if st, _ := warm.run(); st.failed > 0 {
			_ = cl.close()
			return nil, fmt.Errorf("warm-up %d: %d of %d proposals failed, first: %s", k, st.failed, c.warm, st.firstErr)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { _ = cl.close() }()
	r.notef("setup_s: median of %d set-ups %.3f (service.New, listen, %d dials, %d warm-up proposals each)",
		setups, setupS, conns, c.warm)

	before := cl.svc.Stats()
	win := &window{}
	if err := win.open(c.measured, trace); err != nil {
		return nil, err
	}
	var smp *sampler
	if trace {
		smp = startSampler(cl.svc, win)
	}
	gen := &loadgen{w: w, seed: seed, clients: cl.clients, base: setups * c.warm, total: c.measured, win: win}
	st, lateMS := gen.run()
	if err := win.close(); err != nil {
		return nil, err
	}
	if smp != nil {
		smp.finish()
	}
	after := cl.svc.Stats()
	win.latMS = st.latMS

	rounds := float64(ba.MultivaluedOneShotRounds(w.cfg.Kappa))
	if err := win.report(r, setupS, float64(win.end.wchar-win.begin.wchar), rounds); err != nil {
		return nil, fmt.Errorf("%w (first failure: %s)", err, st.firstErr)
	}
	if st.failed > 0 {
		r.violatef("%d of %d proposals failed, first: %s", st.failed, c.measured, st.firstErr)
	}
	if after.Failed != 0 {
		r.violatef("service Stats.Failed = %d, want 0", after.Failed)
	}
	decided := float64(after.Decided - before.Decided)
	fill := decided / float64(after.Instances-before.Instances)
	r.notef("service: %d instances, batch fill %.3f, peak active %d, shed %d",
		after.Instances-before.Instances, fill, after.PeakActive, after.Shed-before.Shed)
	if w.rate == 0 && c.measured >= minFillWindow && fill < minBatchFill {
		r.violatef("service.batch_fill %.3f < %.1f: instances ran partly empty, the run is invalid", fill, minBatchFill)
	}
	if w.rate > 0 {
		sort.Float64s(lateMS)
		over := len(lateMS) - sort.SearchFloat64s(lateMS, ms(lateLimit))
		r.notef("generator lateness: p50 %.3f ms, p90 %.3f ms, max %.3f ms, %d of %d over %s",
			quantile(lateMS, 0.5), quantile(lateMS, 0.9), lateMS[len(lateMS)-1], over, len(lateMS), lateLimit)
		if float64(over) > lateShare*float64(len(lateMS)) {
			r.violatef("open loop: %d of %d proposals issued over %s late, the run is invalid", over, len(lateMS), lateLimit)
		}
	}
	if !trace {
		return r, nil
	}

	m := r.metrics
	m["service.batch_fill"] = fill
	m["service.peak_active"] = float64(after.PeakActive)
	if smp.n > 0 {
		m["service.mean_active"] = smp.active / float64(smp.n)
		m["service.mean_pending"] = smp.pending / float64(smp.n)
	}
	m["service.shed_share"] = float64(after.Shed-before.Shed) / float64(c.measured)
	m["service.server_p50_ms"] = median(st.serverMS)
	if w.rate > 0 {
		m["client.gen_late_p90_ms"] = quantile(lateMS, 0.9)
	}
	if err := climbLadder(r, w, cl, seed, c.ladder); err != nil {
		return nil, err
	}
	return r, nil
}
