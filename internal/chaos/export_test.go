package chaos

import (
	"math/rand"

	"proxcensus/internal/transport"
)

// Generate is the seeded sweep's schedule source, test support only:
// from a seed it draws between one and t faulty nodes (none when t = 0)
// and GenerateFaulty's fault mix for them, then, one time in four, a
// seeded network latency model over the whole run. Identical arguments
// always yield an identical schedule.
func Generate(n, t, rounds int, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	var victims []int
	if t > 0 && rounds > 0 {
		victims = rng.Perm(n)[:1+rng.Intn(t)]
	}
	s := generate(rng, n, t, rounds, victims)
	if rounds > 0 && rng.Intn(4) == 0 {
		names := transport.NetModelNames()
		s.Faults = append(s.Faults, Fault{Kind: Net, Model: names[rng.Intn(len(names))], Seed: rng.Int63n(1 << 31)})
		sortFaults(s.Faults)
	}
	return s
}
