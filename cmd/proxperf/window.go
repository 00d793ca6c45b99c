package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"proxcensus/internal/stats"
)

// segStamp marks a segment boundary of the measured window.
type segStamp struct {
	at  time.Time
	cpu time.Duration
}

// window is the raw record of one measured window, shared by the
// service and simulator workloads: what was attempted, the latency of
// every verified decision, the process counters at both ends and the
// segment boundaries in between.
type window struct {
	attempted int
	trace     bool
	latMS     []float64
	begin     probe
	end       probe
	stamps    [segments + 1]segStamp

	done atomic.Int64
	// traceOn tells the workload's tracing (the service sampler, the
	// simulator's timing decorators) whether the current segment carries
	// it: in a traced run the odd segments do, the even ones are the
	// untraced reference run.trace_overhead_share is measured against.
	traceOn atomic.Bool
}

// open collects the garbage the warm-ups left and takes the opening
// probe.
func (w *window) open(attempted int, trace bool) error {
	w.attempted, w.trace = attempted, trace
	runtime.GC()
	var err error
	if w.begin, err = takeProbe(); err != nil {
		return err
	}
	w.stamps[0] = segStamp{at: w.begin.at, cpu: w.begin.userCPU + w.begin.sysCPU}
	w.traceOn.Store(trace)
	return nil
}

// completed counts one finished operation (decided or failed) and
// stamps the boundary if it ends a segment. Safe for concurrent use:
// each boundary is reached by exactly one caller.
func (w *window) completed() {
	n := int(w.done.Add(1))
	per := w.attempted / segments
	if n%per != 0 || n/per > segments {
		return
	}
	k := n / per
	user, sys, _ := cpuTimes() // the closing probe reports a getrusage failure
	w.stamps[k] = segStamp{at: time.Now(), cpu: user + sys}
	w.traceOn.Store(w.trace && k%2 == 0)
}

func (w *window) close() error {
	var err error
	w.end, err = takeProbe()
	return err
}

// report derives the metrics every workload shares. wireBytes is the
// workload's own count of bytes sent over the window; rounds is its
// rounds per decision.
func (w *window) report(r *result, setupS []float64, wireBytes, rounds float64) error {
	decided := float64(len(w.latMS))
	if decided == 0 {
		return fmt.Errorf("no verified decision out of %d attempted", w.attempted)
	}
	r.attempted = w.attempted
	r.failed = w.attempted - len(w.latMS)
	wall := w.end.at.Sub(w.begin.at)
	cpu := (w.end.userCPU - w.begin.userCPU) + (w.end.sysCPU - w.begin.sysCPU)
	lat := append([]float64(nil), w.latMS...)
	sort.Float64s(lat)
	p50, p90, p99 := median(lat), quantile(lat, 0.90), quantile(lat, 0.99)

	m := r.metrics
	m["setup_s"] = median(setupS)
	m["decisions_per_s"] = decided / wall.Seconds()
	m["decide_p50_ms"] = p50
	m["cpu_ms_per_decision"] = ms(cpu) / decided
	m["alloc_kb_per_decision"] = float64(w.end.alloc-w.begin.alloc) / 1024 / decided
	m["wire_bytes_per_decision"] = wireBytes / decided
	m["rounds_per_decision"] = rounds
	m["decided_share"] = decided / float64(w.attempted)
	r.notef("window: %d attempted, %d decided and verified, failed_share %.6f, %.3f s wall, %.3f s cpu",
		w.attempted, len(lat), float64(r.failed)/float64(w.attempted), wall.Seconds(), cpu.Seconds())
	r.notef("decide latency: %d samples; p90 %.3f ms, p99 %.3f ms (diagnostics: they do not repeat)", len(lat), p90, p99)
	if !w.trace {
		return nil
	}

	m["transport.write_syscalls_per_decision"] = float64(w.end.syscw-w.begin.syscw) / decided
	m["transport.read_syscalls_per_decision"] = float64(w.end.syscr-w.begin.syscr) / decided
	m["transport.cpu_sys_share"] = float64(w.end.sysCPU-w.begin.sysCPU) / float64(cpu)
	m["runtime.allocs_per_decision"] = float64(w.end.mallocs-w.begin.mallocs) / decided
	m["runtime.gc_pause_ms_per_s"] = ms(w.end.gcPause-w.begin.gcPause) / wall.Seconds()
	m["runtime.gc_cycles_per_s"] = float64(w.end.gcCycles-w.begin.gcCycles) / wall.Seconds()
	rss, err := rssPeakMB()
	if err != nil {
		return err
	}
	m["runtime.rss_peak_mb"] = rss
	m["client.decide_p90_ms"] = p90
	m["client.decide_p99_ms"] = p99
	slow := len(lat) - sort.Search(len(lat), func(i int) bool { return lat[i] > 10*p50 })
	m["client.slow10x_share"] = float64(slow) / decided

	var rates, tracedCPU, plainCPU []float64
	for k := 1; k <= segments; k++ {
		a, b := w.stamps[k-1], w.stamps[k]
		if b.at.IsZero() {
			return fmt.Errorf("segment %d of the measured window was never closed", k)
		}
		rates = append(rates, float64(w.attempted/segments)/b.at.Sub(a.at).Seconds())
		if k%2 == 1 {
			tracedCPU = append(tracedCPU, ms(b.cpu-a.cpu))
		} else {
			plainCPU = append(plainCPU, ms(b.cpu-a.cpu))
		}
	}
	r.notef("segments: operations/s %.0f; cpu ms of the traced %.0f, of the untraced %.0f", rates, tracedCPU, plainCPU)
	spread, err := stats.Summarize(rates)
	if err != nil {
		return err
	}
	m["run.seg_cv"] = spread.StdDev / spread.Mean
	m["run.trace_overhead_share"] = median(tracedCPU)/median(plainCPU) - 1
	return nil
}
