package proxcensus_test

import (
	"fmt"
	"testing"

	proxcensus2 "proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// BenchmarkEngineMode pairs the sequential and parallel engines on the
// same workload — a broadcast-heavy expand Proxcensus at growing n. It
// is the one measurement cmd/proxperf does not take (its simulator
// workload runs the sequential engine only); every other performance
// number comes from there, and the paper's quantities — rounds,
// signatures, failure rates — from `proxbench -exp` and the harness
// tests. Both modes build the same machines inside the loop and call
// raw sim.Run, so the difference within a pair is the engine.
func BenchmarkEngineMode(b *testing.B) {
	const rounds = 4
	for _, mode := range []struct {
		name    string
		workers int
	}{{"seq", 0}, {"par", -1}} {
		mode := mode
		for _, n := range []int{16, 64, 256} {
			n := n
			t := (n - 1) / 3
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					machines := make([]sim.Machine, n)
					for p := 0; p < n; p++ {
						machines[p] = proxcensus2.NewExpandMachine(n, t, rounds, p%2)
					}
					cfg := sim.Config{N: n, T: t, Rounds: rounds, Seed: int64(i), Workers: mode.workers}
					if _, err := sim.Run(cfg, machines, sim.Passive{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
