package experiment_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"proxcensus/internal/experiment"
)

// specExpand returns a small valid expand spec tests mutate.
func specExpand() *experiment.Spec {
	return &experiment.Spec{
		Name: "unit", Family: experiment.FamilyExpand,
		N: 4, T: 1, Rounds: 3,
		FaultsTo: -1, SeedCount: 2, SeedBase: 1,
	}
}

// TestSpecValidatePreFlight locks the pre-flight contract: every bad
// parameter is rejected with a pointed error before any socket opens.
func TestSpecValidatePreFlight(t *testing.T) {
	cases := map[string]struct {
		mutate func(*experiment.Spec)
		want   string
	}{
		"no name":          {func(s *experiment.Spec) { s.Name = "" }, "needs a name"},
		"unknown family":   {func(s *experiment.Spec) { s.Family = "bogus" }, "unknown family"},
		"zero rounds":      {func(s *experiment.Spec) { s.Rounds = 0 }, "rounds >= 1"},
		"quorum violation": {func(s *experiment.Spec) { s.N = 4; s.T = 2 }, "requires 3t < n"},
		"bad frame":        {func(s *experiment.Spec) { s.T = 4 }, "invalid frame"},
		"bad input":        {func(s *experiment.Spec) { v := 7; s.Input = &v }, "input must be 0 or 1"},
		"sweep past t":     {func(s *experiment.Spec) { s.FaultsTo = 2 }, "exceeds budget"},
		"empty sweep":      {func(s *experiment.Spec) { s.FaultsFrom = 1; s.FaultsTo = 0 }, "empty fault sweep"},
		"negative sweep":   {func(s *experiment.Spec) { s.FaultsFrom = -2 }, "invalid fault sweep"},
		"no seeds":         {func(s *experiment.Spec) { s.SeedCount = 0 }, "explicit seeds or seed_count"},
		"both seed forms":  {func(s *experiment.Spec) { s.Seeds = []int64{1} }, "not both"},
		"unknown network":  {func(s *experiment.Spec) { s.Network = "dialup" }, "unknown network model"},
		"negative round timeout": {func(s *experiment.Spec) {
			s.RoundTimeoutMS = -5
		}, "round_timeout_ms must be positive"},
		"negative trial timeout": {func(s *experiment.Spec) {
			s.TrialTimeoutMS = -1
		}, "trial_timeout_ms must be positive"},
		"trial timeout below round timeout": {func(s *experiment.Spec) {
			s.RoundTimeoutMS = 400
			s.TrialTimeoutMS = 300
		}, "must exceed the round timeout"},
		"bad schedule": {func(s *experiment.Spec) {
			s.FaultsTo = 0
			s.Schedule = "crash:99@1"
		}, "schedule"},
		"schedule plus sweep": {func(s *experiment.Spec) {
			s.Schedule = "crash:0@1"
			s.FaultsFrom = 1
			s.FaultsTo = 1
		}, "replaces the fault sweep"},
	}
	for name, tc := range cases {
		s := specExpand()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: spec validated but should be rejected", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
	// Kappa gate for the BA families.
	for _, fam := range []string{experiment.FamilyOneShot, experiment.FamilyHalf} {
		s := specExpand()
		s.Family = fam
		s.N, s.T = 4, 1
		s.Kappa = 0
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "kappa >= 1") {
			t.Errorf("%s with kappa=0: got %v, want kappa error", fam, err)
		}
	}
	// Half-tolerance family uses the 2t < n bound, not 3t < n.
	h := &experiment.Spec{
		Name: "h", Family: experiment.FamilyHalf,
		N: 5, T: 2, Kappa: 2, SeedCount: 1, SeedBase: 1,
	}
	if err := h.Validate(); err != nil {
		t.Errorf("half with n=5 t=2 should validate: %v", err)
	}
	h.T = 3
	if err := h.Validate(); err == nil || !strings.Contains(err.Error(), "2t < n") {
		t.Errorf("half with n=5 t=3: got %v, want quorum error", err)
	}
	if err := specExpand().Validate(); err != nil {
		t.Fatalf("base spec must validate: %v", err)
	}
}

// TestParseSpecRejectsUnknownFields: a typo'd knob must fail loudly.
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := experiment.ParseSpec(strings.NewReader(
		`{"name":"x","family":"expand","n":4,"t":1,"rounds":3,"seed_count":1,"round_timeoutms":500}`))
	if err == nil || !strings.Contains(err.Error(), "round_timeoutms") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
	s, err := experiment.ParseSpec(strings.NewReader(
		`{"name":"x","family":"expand","n":4,"t":1,"rounds":3,"faults_to":-1,"seed_count":2,"seed_base":5,"network":"lan"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Network != "lan" {
		t.Fatalf("parsed spec mangled: %+v", s)
	}
}

// TestTrialsGridDeterministic locks the grid contract: fault levels
// ascending, seeds in order, schedules identical across compilations,
// network model attached per trial seed.
func TestTrialsGridDeterministic(t *testing.T) {
	s := specExpand()
	s.Network = "lan"
	s.NetworkSeed = 11
	a, err := s.Trials()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Trials()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 { // faults 0..1 × 2 seeds
		t.Fatalf("grid has %d trials, want 4", len(a))
	}
	for i := range a {
		if a[i].Index != i {
			t.Errorf("trial %d has index %d", i, a[i].Index)
		}
		if a[i].Schedule.Spec() != b[i].Schedule.Spec() || a[i].Seed != b[i].Seed {
			t.Errorf("trial %d differs across compilations: %q vs %q", i, a[i].Schedule.Spec(), b[i].Schedule.Spec())
		}
		if nm := a[i].Schedule.NetModel(); nm == nil || nm.Name != "lan" {
			t.Errorf("trial %d missing lan model: %v", i, nm)
		}
		if got := len(a[i].Schedule.FaultyNodes()); got != a[i].Faults {
			t.Errorf("trial %d schedule has %d faulty nodes, want %d", i, got, a[i].Faults)
		}
	}
	if a[0].Faults != 0 || a[1].Faults != 0 || a[2].Faults != 1 || a[3].Faults != 1 {
		t.Errorf("fault levels not ascending: %v", []int{a[0].Faults, a[1].Faults, a[2].Faults, a[3].Faults})
	}
	if a[0].Seed != 1 || a[1].Seed != 2 {
		t.Errorf("seeds not in list order: %d, %d", a[0].Seed, a[1].Seed)
	}
	// An explicit schedule replaces the sweep.
	s2 := specExpand()
	s2.FaultsTo = 0
	s2.Schedule = "crash:3@2"
	trs, err := s2.Trials()
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 2 || trs[0].Faults != 1 || trs[0].Schedule.Spec() != "crash:3@2" {
		t.Fatalf("explicit-schedule grid wrong: %+v", trs)
	}
}

// TestRunSweepEndToEnd runs a tiny expand sweep over real sockets,
// twice, and demands identical per-trial outcomes and trace hashes —
// the reproducibility contract cmd/proxlab relies on.
func TestRunSweepEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets + full sweep")
	}
	s := specExpand()
	s.Name = "e2e"
	s.Network = "lan"
	s.NetworkSeed = 3
	s.RoundTimeoutMS = 300
	run := func() []experiment.TrialResult {
		res, err := (&experiment.Runner{Spec: s, Logf: t.Logf}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	b := run()
	if len(a) != 4 {
		t.Fatalf("sweep produced %d results, want 4", len(a))
	}
	for i := range a {
		if a[i].Outcome != experiment.OutcomeDecided {
			t.Errorf("trial %d (faults=%d seed=%d): outcome %s (%s), want decided",
				i, a[i].Faults, a[i].Seed, a[i].Outcome, a[i].Detail)
		}
		if a[i].Outcome != b[i].Outcome || a[i].TraceHash != b[i].TraceHash {
			t.Errorf("trial %d not reproducible: %s/%s vs %s/%s",
				i, a[i].Outcome, a[i].TraceHash, b[i].Outcome, b[i].TraceHash)
		}
		if a[i].RoundsDone != s.Rounds {
			t.Errorf("trial %d completed %d rounds, want %d", i, a[i].RoundsDone, s.Rounds)
		}
		if a[i].Decided == 0 || a[i].Survivors == 0 {
			t.Errorf("trial %d recorded no deciders: %+v", i, a[i])
		}
	}
	curve, err := experiment.Curve(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 || curve[0].Faults != 0 || curve[1].Faults != 1 {
		t.Fatalf("curve levels wrong: %+v", curve)
	}
	for _, p := range curve {
		if p.Rate != 1 || p.Decided != 2 {
			t.Errorf("faults=%d: rate %.2f decided %d, want all decided", p.Faults, p.Rate, p.Decided)
		}
	}
}

// TestRunStopsAtSinkError: a Sink that fails (cmd/proxlab's artifact
// write on a full disk) stops the sweep at that trial, and Run returns
// the error with only the results the Sink accepted.
func TestRunStopsAtSinkError(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets")
	}
	s := specExpand()
	s.RoundTimeoutMS = 300
	errFull := errors.New("disk full")
	calls := 0
	res, err := (&experiment.Runner{Spec: s, Sink: func(experiment.TrialResult) error {
		calls++
		if calls == 2 {
			return errFull
		}
		return nil
	}}).Run()
	if !errors.Is(err, errFull) {
		t.Fatalf("Run() error = %v, want the sink's %v", err, errFull)
	}
	if calls != 2 || len(res) != 1 {
		t.Fatalf("sink called %d times, %d results returned; want 2 calls and 1 result", calls, len(res))
	}
}

// TestTrialWatchdogClassifiesTimeout pins the mandatory timeout wrap:
// a trial that cannot finish inside its budget classifies timed-out
// instead of wedging the sweep.
func TestTrialWatchdogClassifiesTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets")
	}
	s := specExpand()
	s.Name = "watchdog"
	s.FaultsTo = 0
	s.SeedCount = 1
	// One round would take ~300ms to even join; 10ms round / 20ms trial
	// budget cannot complete. The run is abandoned to its own deadlines.
	s.RoundTimeoutMS = 10
	s.TrialTimeoutMS = 20
	trs, err := s.Trials()
	if err != nil {
		t.Fatal(err)
	}
	res := (&experiment.Runner{Spec: s}).RunTrial(trs[0])
	if res.Outcome == experiment.OutcomeDecided {
		t.Fatalf("impossible budget decided: %+v", res)
	}
	if res.Outcome == experiment.OutcomeTimedOut && !strings.Contains(res.Detail, "no result within") {
		t.Errorf("timeout detail missing budget: %q", res.Detail)
	}
}

// TestCurvePartialOutput feeds the analysis mixed and malformed input:
// the curve must cover whatever parses and count every outcome class.
func TestCurvePartialOutput(t *testing.T) {
	results := []experiment.TrialResult{
		{Faults: 0, Outcome: experiment.OutcomeDecided, WallMS: 10},
		{Faults: 0, Outcome: experiment.OutcomeDecided, WallMS: 12},
		{Faults: 1, Outcome: experiment.OutcomeDecided, WallMS: 20},
		{Faults: 1, Outcome: experiment.OutcomeDegraded, WallMS: 30, Detail: "agreement: split"},
		{Faults: 2, Outcome: experiment.OutcomeTimedOut, WallMS: 500},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // the archive writer cmd/proxlab's Sink uses
	for _, tr := range results {
		if err := enc.Encode(tr); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the archive the way a killed sweep does: truncate the
	// last line and add noise.
	raw := buf.String()
	raw = raw[:len(raw)-10] + "\n{not json}\n\n"
	got, skipped, err := experiment.ReadJSONL(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || skipped != 2 {
		t.Fatalf("read %d results, skipped %d; want 4 and 2", len(got), skipped)
	}
	curve, err := experiment.Curve(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 {
		t.Fatalf("curve has %d levels, want 2 (timed-out level lost to truncation)", len(curve))
	}
	p0, p1 := curve[0], curve[1]
	if p0.Faults != 0 || p0.Decided != 2 || p0.Rate != 1 {
		t.Errorf("level 0 wrong: %+v", p0)
	}
	if p1.Faults != 1 || p1.Decided != 1 || p1.Degraded != 1 || p1.Rate != 0.5 {
		t.Errorf("level 1 wrong: %+v", p1)
	}
	if p1.Lo >= p1.Rate || p1.Hi <= p1.Rate {
		t.Errorf("Wilson interval does not bracket the rate: %+v", p1)
	}
	var table bytes.Buffer
	if err := experiment.WriteCurve(&table, "unit", curve); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"faults", "decision rate", "0.50"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("curve table missing %q:\n%s", want, table.String())
		}
	}
	// Two trials per level support a median, not a p99: the p99 cell
	// is "-" until a level has 40 trials.
	for _, tc := range []struct {
		trials int
		p99    string
	}{{2, "-"}, {39, "-"}, {40, "39.6"}} {
		level := make([]experiment.TrialResult, tc.trials)
		for i := range level {
			level[i] = experiment.TrialResult{Outcome: experiment.OutcomeDecided, WallMS: float64(i + 1)}
		}
		curve, err := experiment.Curve(level)
		if err != nil {
			t.Fatal(err)
		}
		table.Reset()
		if err := experiment.WriteCurve(&table, "unit", curve); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(table.String()), "\n")
		cells := strings.Fields(lines[len(lines)-1])
		if got := cells[len(cells)-1]; got != tc.p99 {
			t.Errorf("%d trials: p99 cell %q, want %q\n%s", tc.trials, got, tc.p99, table.String())
		}
	}
}
