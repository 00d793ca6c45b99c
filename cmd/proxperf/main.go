// Command proxperf is the repository's performance benchmark: four
// fixed-work workloads over proxserve's service stack and the
// simulator, each run in a single process, each checking every output.
// See README.md in this directory for what every workload and metric is
// for; BENCHMARK.json at the repository root names them for the driver.
//
//	proxperf -workload svc_digest_n16 -seed 1 -seconds 24 -trace 0
//	proxperf -aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

func main() {
	name := flag.String("workload", "", "workload to run: svc_digest_n16 | svc_payload4k_n16 | svc_open_n4 | sim_oneshot_n127")
	seed := flag.Int64("seed", 1, "seed for proposal values, payload bytes, protocol setup and simulator executions")
	seconds := flag.Float64("seconds", defaultSeconds, "nominal length of the measured window; it fixes the operation count, not the duration")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics; 0 reports the end-to-end metrics")
	aa := flag.Int("aa", 0, "A/A mode: run this binary as two interleaved sets of K runs per workload and compare their medians")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *aa > 0 {
		os.Exit(runAA(*aa, *seed, *seconds))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "proxperf: unknown workload %q\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s kernel=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease())
	c := w.counts(*seconds)
	fmt.Printf("workload %s seed %d trace %d: %d warm-up x %d set-ups, %d measured\n", w.name, *seed, *trace, c.warm, setups, c.measured)
	r, err := w.run(*seed, c, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "proxperf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, r, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "proxperf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if len(r.violations) > 0 {
		os.Exit(1)
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

// reported is the driver's result line.
type reported struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]reportedValue `json:"metrics"`
}

type reportedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the notes, every metric of the run's kind by name with
// its unit, any violation, and last the result line.
func emit(out io.Writer, r *result, trace bool) error {
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	rep := reported{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]reportedValue, len(specs)),
	}
	for _, s := range specs {
		v := r.metrics[s.Name] // a per-layer metric the workload does not have reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.Name, v)
		}
		fmt.Fprintf(out, "%-40s %16.6f %s\n", s.Name, v, s.Unit)
		rep.Metrics[s.Name] = reportedValue{Value: v, Unit: s.Unit}
	}
	for _, v := range r.violations {
		fmt.Fprintln(out, "VIOLATION:", v)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
