package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAA measures the benchmark against itself: the same binary run as
// two interleaved sets, A and B, of k untraced runs per workload, every
// run with another seed. For each workload and end-to-end metric it
// prints both set medians, how much worse B's is than A's as a share of
// A's, the quartile spread of all 2k values over their median, and the
// metric's bound. Any difference or spread beyond its bound fails the
// trial — the check the driver makes before it accepts the benchmark.
// setup_s is exempt from the spread check, as it is there.
func runAA(k int, seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "proxperf:", err)
		return 1
	}
	// values[workload][metric][set] lists that set's readings.
	values := make(map[string]map[string]*[2][]float64)
	for _, w := range workloads {
		values[w.name] = make(map[string]*[2][]float64)
		for _, s := range endToEnd {
			values[w.name][s.Name] = new([2][]float64)
		}
	}
	for i := 0; i < k; i++ {
		for _, w := range workloads {
			for set := 0; set < 2; set++ {
				runSeed := seed + int64(2*i+set)
				rep, err := runSelf(self, w.name, runSeed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "proxperf: %s seed %d: %v\n", w.name, runSeed, err)
					return 1
				}
				for _, s := range endToEnd {
					vals := values[w.name][s.Name]
					vals[set] = append(vals[set], rep.Metrics[s.Name].Value)
				}
				fmt.Printf("run %d/%d set %c %-18s seed %-4d %8.1f decisions/s  p50 %8.3f ms  cpu %7.3f ms\n",
					i+1, k, 'A'+set, w.name, runSeed, rep.Metrics["decisions_per_s"].Value,
					rep.Metrics["decide_p50_ms"].Value, rep.Metrics["cpu_ms_per_decision"].Value)
			}
		}
	}

	bad := 0
	fmt.Printf("\n%-18s %-24s %12s %12s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "B worse", "spread", "bound")
	for _, w := range workloads {
		for _, s := range endToEnd {
			vals := values[w.name][s.Name]
			a, b := median(vals[0]), median(vals[1])
			worse := (b - a) / a
			if s.Better == "higher" {
				worse = -worse
			}
			spread := quartileSpread(append(append([]float64(nil), vals[0]...), vals[1]...))
			verdict := ""
			if worse > s.Bound || (s.Name != "setup_s" && spread > s.Bound) {
				verdict = "  OVER"
				bad++
			}
			fmt.Printf("%-18s %-24s %12.4f %12.4f %+7.2f%% %7.2f%% %5.1f%%%s\n",
				w.name, s.Name, a, b, 100*worse, 100*spread, 100*s.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\nA/A: %d metric(s) over their bound\n", bad)
		return 1
	}
	fmt.Println("\nA/A: every set difference and spread within its bound")
	return 0
}

// runSelf runs one untraced run of this binary and parses its result
// line.
func runSelf(self, workload string, seed int64, seconds float64) (reported, error) {
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return reported{}, fmt.Errorf("%w\n%s", err, out)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var rep reported
	if err := json.Unmarshal(last, &rep); err != nil {
		return reported{}, fmt.Errorf("result line %q: %w", last, err)
	}
	if !rep.Correct {
		return reported{}, fmt.Errorf("run reported incorrect output:\n%s", out)
	}
	return rep, nil
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method).
func quartileSpread(xs []float64) float64 {
	sort.Float64s(xs)
	q := func(p float64) float64 {
		pos := p * float64(len(xs)+1)
		i := int(pos)
		switch {
		case i < 1:
			return xs[0]
		case i >= len(xs):
			return xs[len(xs)-1]
		}
		return xs[i-1] + (pos-float64(i))*(xs[i]-xs[i-1])
	}
	return (q(0.75) - q(0.25)) / median(xs)
}
