package service

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"proxcensus/internal/ba"
	"proxcensus/internal/chaos"
	"proxcensus/internal/transport"
)

// TestMain runs the package's tests with released transport frames
// poisoned (transport.SetFramePoison): a decided payload assembled from
// bytes read after their frame was released comes back as 0xDB garbage
// and fails the byte-for-byte checks below.
func TestMain(m *testing.M) {
	transport.SetFramePoison(true)
	os.Exit(m.Run())
}

// quickService keeps tests fast: n=4 t=1 kappa=1 instances (4 rounds)
// with a tight round deadline.
func quickService(t *testing.T, mutate func(*Config)) *Service {
	t.Helper()
	cfg := Config{
		N: 4, T: 1, Kappa: 1, Seed: 7,
		RoundTimeout: 2 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestServiceDecidesBatches: a burst of proposals resolves with every
// ticket committed, proposals sharing an instance agree on its digest,
// and the counters reconcile.
func TestServiceDecidesBatches(t *testing.T) {
	const total = 16
	s := quickService(t, func(c *Config) {
		c.Batch = 4
		c.MaxActive = 4
		c.MaxPending = total
	})
	tickets := make([]*Ticket, total)
	for i := range tickets {
		tk, err := s.Submit(ba.Value(100 + i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	digests := make(map[int]ba.Value)
	for i, tk := range tickets {
		d := tk.Wait()
		if d.Err != nil || !d.Committed {
			t.Fatalf("proposal %d: committed=%v err=%v", i, d.Committed, d.Err)
		}
		if d.Value != ba.Value(100+i) {
			t.Fatalf("proposal %d echoed value %d", i, d.Value)
		}
		if prev, ok := digests[d.Instance]; ok && prev != d.Digest {
			t.Fatalf("instance %d reported digests %d and %d", d.Instance, prev, d.Digest)
		}
		digests[d.Instance] = d.Digest
		if d.Latency <= 0 {
			t.Fatalf("proposal %d has non-positive latency %s", i, d.Latency)
		}
	}
	st := s.Stats()
	if st.Decided != total || st.Failed != 0 || st.Submitted != total {
		t.Fatalf("stats: %+v", st)
	}
	if st.Instances < 1 || st.Instances > total {
		t.Fatalf("instances = %d", st.Instances)
	}
	rep := s.Report()
	if rep.Validation == nil || rep.Validation.Admitted == 0 {
		t.Errorf("service report has no ingress admissions: %+v", rep.Validation)
	}
}

// TestServiceOverloadSheds: with a tiny queue and one worker, a fast
// burst sheds load via ErrOverloaded instead of blocking, and every
// accepted proposal still decides.
func TestServiceOverloadSheds(t *testing.T) {
	const total = 50
	s := quickService(t, func(c *Config) {
		c.Batch = 1
		c.MaxActive = 1
		c.MaxPending = 2
	})
	var tickets []*Ticket
	shed := 0
	for i := 0; i < total; i++ {
		tk, err := s.Submit(ba.Value(i))
		switch {
		case errors.Is(err, ErrOverloaded):
			shed++
			if !strings.Contains(err.Error(), "retry after") {
				t.Fatalf("shed error carries no retry hint: %v", err)
			}
		case err != nil:
			t.Fatalf("submit %d: %v", i, err)
		default:
			tickets = append(tickets, tk)
		}
	}
	if shed == 0 {
		t.Fatal("burst of 50 against queue of 2 shed nothing")
	}
	for i, tk := range tickets {
		if d := tk.Wait(); d.Err != nil || !d.Committed {
			t.Fatalf("accepted proposal %d: committed=%v err=%v", i, d.Committed, d.Err)
		}
	}
	st := s.Stats()
	if int(st.Decided)+int(st.Shed) != total || int(st.Shed) != shed {
		t.Fatalf("decided %d + shed %d != %d", st.Decided, st.Shed, total)
	}
}

// TestServiceSubmitValidation: negative values and post-Close submits
// are rejected.
func TestServiceSubmitValidation(t *testing.T) {
	s := quickService(t, nil)
	if _, err := s.Submit(-1); err == nil {
		t.Error("negative value admitted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(1); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// TestConfigValidate: each invalid field produces a pointed error.
func TestConfigValidate(t *testing.T) {
	base := func() Config {
		return Config{N: 4, T: 1}.withDefaults()
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"too few parties", func(c *Config) { c.N = 1 }, "at least 2 parties"},
		{"negative t", func(c *Config) { c.T = -1 }, "negative fault tolerance"},
		{"quorum bound", func(c *Config) { c.N = 3; c.T = 1 }, "3t < n"},
		{"kappa", func(c *Config) { c.Kappa = 0 }, "kappa"},
		{"max-pending", func(c *Config) { c.MaxPending = -1 }, "max-pending"},
		{"max-active", func(c *Config) { c.MaxActive = -1 }, "max-active"},
		{"batch", func(c *Config) { c.Batch = -1 }, "batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestBatchDigest: deterministic, order-sensitive, non-negative.
func TestBatchDigest(t *testing.T) {
	mk := func(vals ...int) []proposal {
		ps := make([]proposal, len(vals))
		for i, v := range vals {
			ps[i].value = ba.Value(v)
		}
		return ps
	}
	a, b := batchDigest(mk(1, 2, 3)), batchDigest(mk(1, 2, 3))
	if a != b {
		t.Fatal("digest not deterministic")
	}
	if a < 0 {
		t.Fatal("digest negative")
	}
	if batchDigest(mk(3, 2, 1)) == a {
		t.Fatal("digest ignores order")
	}
}

// TestServiceUnderInjectedFaults runs chaos schedules on the path that
// ships: every instance of the service consults the schedule with its
// own round number, and a mixed digest+payload stream must still commit
// in full — BA tolerates the one faulty node each schedule charges.
func TestServiceUnderInjectedFaults(t *testing.T) {
	const total, rounds = 32, 4 // kappa=1 multivalued instances run 4 rounds
	cases := []struct {
		name, spec string
		maxActive  int
		check      func(t *testing.T, rep transport.Report)
	}{
		{"crash+delay", "crash:3@2;delay:0@1+5ms", 8, func(t *testing.T, rep transport.Report) {
			if rep.Count(transport.EventCrash) == 0 || rep.Count(transport.EventDelay) == 0 {
				t.Errorf("crash/delay missing from the merged report: %s", rep.Summary())
			}
			if rep.Deaths() != 1 || !rep.Dead[3] {
				t.Errorf("dead = %v, want exactly node 3", rep.Dead)
			}
		}},
		// One instance at a time: no other instance has a delivery in
		// flight when the shared connection bounces, so nothing is lost.
		{"drop", "drop:1@2", 1, func(t *testing.T, rep transport.Report) {
			if rep.Deaths() != 0 || rep.Count(transport.EventReconnect) == 0 {
				t.Errorf("deaths=%d reconnects=%d, want 0 and >= 1", rep.Deaths(), rep.Count(transport.EventReconnect))
			}
		}},
		// A resent frame reaches the hub a round late and is released as
		// stale while the instance's current frames are in use.
		{"dup", "dup:0@1;dup:2@2;dup:0@3", 8, func(t *testing.T, rep transport.Report) {
			if rep.Deaths() != 0 || rep.Count(transport.EventDup) == 0 {
				t.Errorf("deaths=%d dups=%d, want 0 and >= 1", rep.Deaths(), rep.Count(transport.EventDup))
			}
		}},
		// Cut off for round 1 only, node 2 is brought back to the common
		// value by Turpin-Coan's echo round and still agrees. A node cut off
		// for a whole instance decides alone, and the service — which cannot
		// tell a partitioned party from a protocol bug — fails the instance.
		{"partition", "part:2@1-1", 8, func(t *testing.T, rep transport.Report) {
			if rep.Deaths() != 0 || rep.Count(transport.EventPartition) == 0 {
				t.Errorf("deaths=%d partitions=%d, want 0 and >= 1", rep.Deaths(), rep.Count(transport.EventPartition))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sched, err := chaos.Parse(tc.spec, 4, 1, rounds)
			if err != nil {
				t.Fatal(err)
			}
			s := quickService(t, func(c *Config) {
				c.Batch, c.MaxActive, c.MaxPending = 4, tc.maxActive, total
				c.Faults = sched
				c.RoundTimeout = 300 * time.Millisecond // what each instance pays for the crash
			})
			tickets := make([]*Ticket, total)
			payloads := make([][]byte, total)
			for i := range tickets {
				if i/4%2 == 0 {
					tickets[i], err = s.Submit(ba.Value(100 + i))
				} else {
					payloads[i] = bytes.Repeat([]byte{byte(i)}, 512)
					tickets[i], err = s.SubmitPayload(payloads[i])
				}
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}
			for i, tk := range tickets {
				if d := tk.Wait(); d.Err != nil || !d.Committed || !bytes.Equal(d.Payload, payloads[i]) {
					t.Fatalf("proposal %d: committed=%v err=%v payload %d bytes", i, d.Committed, d.Err, len(d.Payload))
				}
			}
			tc.check(t, s.Report())
		})
	}
}

// switchedFaults is a fault injector a test arms for one instance at a
// time: fault cut partitions node 3 from every other node for every
// round; fault crash crash-stops nodes 2 and 3 in round 2.
type switchedFaults struct {
	transport.NoFaults
	fault atomic.Int32
}

const (
	faultNone int32 = iota
	faultCut
	faultCrash
)

func (f *switchedFaults) Partitioned(from, to, _ int) bool {
	return f.fault.Load() == faultCut && from != to && (from == 3 || to == 3)
}

func (f *switchedFaults) CrashRound(id int) int {
	if f.fault.Load() == faultCrash && id >= 2 {
		return 2
	}
	return 0
}

// TestWorkerReusesMachinesAcrossInstances: one worker runs every
// instance, so after each family's first instance it runs on machines
// reset from the last one. Digest and payload instances alternate with
// a new value each. The first digest instance fails: node 3 is cut off,
// decides alone, and the service refuses the disagreement — its
// machines end decided on the default. A later payload instance fails
// with two nodes crashed in round 2, its machines cut short mid-prefix.
// Every other ticket commits its own value or bytes, and every decided
// payload is still byte-equal to its proposal after all later instances
// ran on the same machines.
func TestWorkerReusesMachinesAcrossInstances(t *testing.T) {
	faults := &switchedFaults{}
	s := quickService(t, func(c *Config) {
		c.MaxActive, c.Batch = 1, 4
		c.Faults = faults
		c.RoundTimeout = 300 * time.Millisecond
	})
	type result struct {
		d       Decision
		payload []byte
	}
	var results []result
	for i := 0; i < 12; i++ {
		fault := faultNone
		switch i {
		case 0:
			fault = faultCut
		case 5:
			fault = faultCrash
		}
		faults.fault.Store(fault)
		var (
			tk      *Ticket
			err     error
			payload []byte
			value   = ba.Value(1000 + 17*i)
		)
		if i%2 == 0 {
			tk, err = s.Submit(value)
		} else {
			payload = bytes.Repeat([]byte{byte(i), byte(255 - i)}, 64+i)
			tk, err = s.SubmitPayload(payload)
		}
		if err != nil {
			t.Fatalf("instance %d: submit: %v", i, err)
		}
		d := tk.Wait()
		faults.fault.Store(faultNone)
		if fault != faultNone {
			if d.Committed || d.Err == nil {
				t.Fatalf("instance %d: committed under an injected fault", i)
			}
			continue
		}
		if !d.Committed || d.Err != nil {
			t.Fatalf("instance %d: committed=%v err=%v", i, d.Committed, d.Err)
		}
		if payload == nil {
			if want := batchDigest([]proposal{{value: value}}); d.Value != value || d.Digest != want {
				t.Fatalf("instance %d: decided value %d digest %d, want %d and %d", i, d.Value, d.Digest, value, want)
			}
		} else if !bytes.Equal(d.Payload, payload) {
			t.Fatalf("instance %d: decided %d bytes that are not its proposal", i, len(d.Payload))
		}
		results = append(results, result{d, payload})
	}
	for _, r := range results {
		if r.payload != nil && !bytes.Equal(r.d.Payload, r.payload) {
			t.Fatalf("instance %d's decided payload changed after later instances ran", r.d.Instance)
		}
	}
	if st := s.Stats(); st.Instances != 12 || st.Failed != 2 || st.Decided != 10 {
		t.Fatalf("stats %+v, want 12 instances, 2 failed and 10 decided proposals", st)
	}
}
