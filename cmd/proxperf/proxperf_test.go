package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// testCounts runs a workload at about 1/100 of its checked-in size.
func testCounts(w workload) counts {
	c := w.counts(defaultSeconds / 100.0)
	c.warm = (w.warm + 99) / 100
	c.ladder = 10
	return c
}

// runEmitted runs one workload and returns its result and what emit
// printed for it.
func runEmitted(t *testing.T, w workload, trace bool) (*result, string) {
	t.Helper()
	r, err := w.run(7, testCounts(w), trace)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	for _, v := range r.violations {
		t.Errorf("%s trace=%v: violation: %s", w.name, trace, v)
	}
	var out bytes.Buffer
	if err := emit(&out, r, trace); err != nil {
		t.Fatalf("%s trace=%v: emit: %v", w.name, trace, err)
	}
	return r, out.String()
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkEmitted verifies that every metric of specs is printed exactly
// once by name with its unit, and that the result line carries exactly
// those metrics, finite.
func checkEmitted(t *testing.T, label, out string, specs []metricSpec) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rep reported
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", label, err)
	}
	if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
		t.Errorf("%s: result line says correct=%v attempted=%d failed=%d", label, rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(specs) {
		t.Errorf("%s: result line has %d metrics, want %d", label, len(rep.Metrics), len(specs))
	}
	for _, s := range specs {
		if !metricName.MatchString(s.Name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", s.Name)
		}
		printed := 0
		for _, line := range lines[:len(lines)-1] {
			if f := strings.Fields(line); len(f) == 3 && f[0] == s.Name && f[2] == s.Unit {
				printed++
			}
		}
		if printed != 1 {
			t.Errorf("%s: metric %s printed %d times, want once", label, s.Name, printed)
		}
		v, ok := rep.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("%s: result line lacks %s", label, s.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", label, s.Name, v.Value)
		case v.Unit != s.Unit:
			t.Errorf("%s: %s has unit %q, want %q", label, s.Name, v.Unit, s.Unit)
		}
	}
}

// countMetrics are the end-to-end metrics that count work rather than
// time it; they must repeat from run to run.
var countMetrics = []string{"alloc_kb_per_decision", "wire_bytes_per_decision", "rounds_per_decision"}

func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs []*result
			for i := 0; i < 2; i++ {
				r, out := runEmitted(t, w, false)
				checkEmitted(t, w.name, out, endToEnd)
				for _, s := range endToEnd {
					if r.metrics[s.Name] <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", s.Name, r.metrics[s.Name])
					}
				}
				runs = append(runs, r)
			}
			r, out := runEmitted(t, w, true)
			checkEmitted(t, w.name+" traced", out, perLayer)
			m := r.metrics
			runs = append(runs, r) // a traced run measures the end-to-end metrics too

			// Same seed, same work. The simulator's message counts are
			// identical to the bit and its allocation differs only by what
			// the runtime itself allocates. The service's counts are per
			// instance, and in a window this short the batches that fill
			// while the pipeline ramps up and drains (or, in the open loop,
			// when two arrivals happen to share an instance) move the
			// instance count by several per cent; at full size they agree
			// within 0.1 % (README.md).
			sim := w.name == "sim_oneshot_n127"
			for _, name := range countMetrics {
				tolerance := 0.15
				switch {
				case sim && name == "alloc_kb_per_decision":
					tolerance = 0.001
				case sim:
					tolerance = 0
				}
				a := runs[0].metrics[name]
				for _, r := range runs[1:] {
					if b := r.metrics[name]; math.Abs(b-a) > tolerance*a {
						t.Errorf("%s differs between same-seed runs: %v vs %v", name, a, b)
					}
				}
			}
			if sim {
				if got := m["sim.honest_msgs_per_decision"]; got != 86360 {
					t.Errorf("sim.honest_msgs_per_decision = %v, want 86360", got)
				}
				for _, name := range []string{"ba.machine_us_per_decision", "adversary.act_us_per_decision", "ba.build_us_per_decision", "sim.engine_self_us_per_decision"} {
					if m[name] <= 0 {
						t.Errorf("%s = %v, want a positive self time", name, m[name])
					}
				}
				return
			}
			// The thick layers must read positive. The thin ones (a queue
			// hop, a line of text) are within the noise of the ten instances
			// a rung gets here and may read below zero; they only have to
			// keep the sum.
			thick := []string{
				"ba.machine_us_per_instance", "wire.encode_us_per_instance", "wire.decode_us_per_instance",
				"validate.admit_us_per_instance", "transport.self_us_per_instance",
			}
			thin := []string{"ba.build_us_per_instance", "service.core_us", "service.api_us"}
			total, sum := m["ladder.total_us"], 0.0
			for _, name := range thick {
				sum += m[name]
				if m[name] <= 0 {
					t.Errorf("%s = %.1f us, want a positive self time", name, m[name])
				}
			}
			for _, name := range thin {
				sum += m[name]
			}
			if math.Abs(sum-total) > 0.01*total {
				t.Errorf("ladder layers sum to %.1f us, ladder.total_us is %.1f", sum, total)
			}
			if m["validate.rejected_per_instance"] != 0 {
				t.Errorf("validate.rejected_per_instance = %v, want 0", m["validate.rejected_per_instance"])
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in spec.go
// equal: names, units, directions, bounds, workloads and run length.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, defaultSeconds = %v", file.RunSeconds, defaultSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "cmd/proxperf" {
		t.Errorf("paths = %v, want [cmd/proxperf]", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	compare := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, spec.go has %+v", kind, i, g, s)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != s.Bound):
				t.Errorf("%s: bound in BENCHMARK.json differs from spec.go's %v", s.Name, s.Bound)
			case bounded && (s.Bound <= 0 || s.Bound > 0.25):
				t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics have no bound", s.Name)
			}
		}
	}
	compare("end-to-end", file.EndToEnd, endToEnd, true)
	compare("per-layer", file.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the contract wants setup_s in s, lower is better; got %+v", endToEnd[0])
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25]; the median is 5.5.
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
