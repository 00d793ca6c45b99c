package main

import "fmt"

// metricSpec names one reported metric. BENCHMARK.json repeats these
// tables; the package test keeps the two equal.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change is rejected; per-layer metrics have none.
	Bound float64
}

// endToEnd is what a user of the service or the simulator sees. Every
// workload reports all of them in the untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"decisions_per_s", "1/s", "higher", 0.25},
	{"decide_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_decision", "ms", "lower", 0.25},
	{"alloc_kb_per_decision", "KiB", "lower", 0.05},
	{"wire_bytes_per_decision", "B", "lower", 0.02},
	{"rounds_per_decision", "count", "lower", 0.001},
	{"decided_share", "share", "higher", 0.001},
}

// perLayer is what the traced run reports. A metric that does not
// apply to a workload (the ladder on the simulator, the simulator spans
// on a service workload) reads 0 there.
var perLayer = []metricSpec{
	// Under load, over the same work as the untraced run.
	{Name: "service.batch_fill", Unit: "count", Better: "higher"},
	{Name: "service.peak_active", Unit: "count", Better: "higher"},
	{Name: "service.mean_active", Unit: "count", Better: "higher"},
	{Name: "service.mean_pending", Unit: "count", Better: "lower"},
	{Name: "service.shed_share", Unit: "share", Better: "lower"},
	{Name: "service.server_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.write_syscalls_per_decision", Unit: "count", Better: "lower"},
	{Name: "transport.read_syscalls_per_decision", Unit: "count", Better: "lower"},
	{Name: "transport.cpu_sys_share", Unit: "share", Better: "lower"},
	{Name: "runtime.allocs_per_decision", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "runtime.gc_cycles_per_s", Unit: "1/s", Better: "lower"},
	{Name: "runtime.rss_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "client.decide_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.decide_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.slow10x_share", Unit: "share", Better: "lower"},
	{Name: "client.gen_late_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "run.seg_cv", Unit: "share", Better: "lower"},
	{Name: "run.trace_overhead_share", Unit: "share", Better: "lower"},
	// Layer ladder, one instance at a time (service workloads).
	{Name: "ba.machine_us_per_instance", Unit: "us", Better: "lower"},
	{Name: "ba.build_us_per_instance", Unit: "us", Better: "lower"},
	{Name: "wire.encode_us_per_instance", Unit: "us", Better: "lower"},
	{Name: "wire.decode_us_per_instance", Unit: "us", Better: "lower"},
	{Name: "wire.frame_bytes_per_instance", Unit: "B", Better: "lower"},
	{Name: "validate.admit_us_per_instance", Unit: "us", Better: "lower"},
	{Name: "validate.rejected_per_instance", Unit: "count", Better: "lower"},
	{Name: "transport.instance_us", Unit: "us", Better: "lower"},
	{Name: "transport.self_us_per_instance", Unit: "us", Better: "lower"},
	{Name: "service.core_us", Unit: "us", Better: "lower"},
	{Name: "service.api_us", Unit: "us", Better: "lower"},
	{Name: "ladder.total_us", Unit: "us", Better: "lower"},
	// Simulator spans (sim_oneshot_n127).
	{Name: "ba.machine_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "adversary.act_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "ba.build_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "sim.engine_self_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "sim.honest_msgs_per_decision", Unit: "count", Better: "lower"},
	{Name: "sim.honest_sigs_per_decision", Unit: "count", Better: "lower"},
	{Name: "ba.disagree_count", Unit: "count", Better: "lower"},
}

// segments is how many equal-count slices the measured window is cut
// into: run.seg_cv is the spread of their rates, and in a traced run
// the odd ones carry the tracing so its overhead is read off their CPU.
const segments = 20

// counts sizes one run: how many operations warm the system up inside
// every set-up, how many are measured, and how many instances each
// ladder rung runs.
type counts struct {
	warm, measured, ladder int
}

// setups is how many times a run builds and warms its system; setup_s
// is the median, and the last system built is the one measured.
const setups = 3

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// perSecond is how many measured operations stand for one second of
	// -seconds: fixed in the code, so two commits given the same -seconds
	// do identical work however fast either is.
	perSecond float64
	warm      int
	run       func(seed int64, c counts, trace bool) (*result, error)
}

func (w workload) counts(seconds float64) counts {
	n := int(w.perSecond*seconds + 0.5)
	if n < segments {
		n = segments
	}
	return counts{warm: w.warm, measured: n - n%segments, ladder: 300}
}

var workloads = []workload{
	{
		name:      "svc_digest_n16",
		why:       "closed loop, 64 outstanding int proposals at n=16: saturates the small-message path (syscalls, allocation, screen); payload codec idle",
		perSecond: 1500, warm: 2400,
		run: svcDigestN16.run,
	},
	{
		name:      "svc_payload4k_n16",
		why:       "same cluster and loop with seeded 4 KiB payloads: bytes instead of message count (memmove, blob decode, hex API) - the payload cliff",
		perSecond: 300, warm: 400,
		run: svcPayload4kN16.run,
	},
	{
		name:      "svc_open_n4",
		why:       "open loop at a fixed 800 proposals/s, n=4, one proposal per instance: latency is one instance's blocking path, so batching gains predict no change",
		perSecond: openRate, warm: 1000,
		run: svcOpenN4.run,
	},
	{
		name:      "sim_oneshot_n127",
		why:       "no sockets: one-shot BA at n=127 t=42 under the adaptive straddle adversary on the sequential engine; bypasses service, transport, wire and validate",
		perSecond: 58, warm: 80,
		run: runSim,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is what one run of one workload produced.
type result struct {
	attempted int
	failed    int
	// violations lists every failed correctness check; empty means the
	// run is correct.
	violations []string
	// metrics holds every end-to-end metric and, in a traced run, every
	// per-layer metric, by name.
	metrics map[string]float64
	// notes are diagnostics printed but not reported as metrics.
	notes []string
}

func (r *result) violatef(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
