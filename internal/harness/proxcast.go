package harness

import (
	"fmt"
	"sort"

	"proxcensus/internal/adversary"
	"proxcensus/internal/crypto/sig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// runProxcastRelease executes s-slot Proxcast with a corrupted dealer
// that serves value 0 honestly in round 1 and has an accomplice release
// the contradicting signature on 1 at the given round. It returns the
// sorted distinct honest grades.
func runProxcastRelease(n, tCorrupt, slots, release int) ([]int, error) {
	if tCorrupt < 2 {
		return nil, fmt.Errorf("harness: proxcast release scenario needs t >= 2 (dealer + accomplice), got %d", tCorrupt)
	}
	const dealer, accomplice = 0, 1
	var seed [sig.Size]byte
	seed[0] = 0xaa
	pk, sk := sig.KeyGen(dealer, seed)
	machines := proxcensus.NewProxcastMachines(proxcensus.ProxcastConfig{
		N: n, T: tCorrupt, Slots: slots, Dealer: dealer, Input: 0, DealerPK: pk, DealerSK: sk,
	})
	adv := adversary.LateReleaseDealer(dealer, accomplice, release, sk)
	res, err := sim.Run(sim.Config{N: n, T: tCorrupt, Rounds: slots - 1, Seed: 5}, machines, adv)
	if err != nil {
		return nil, fmt.Errorf("harness: proxcast run: %w", err)
	}
	seen := map[int]bool{}
	for _, o := range res.Outputs {
		seen[o.(proxcensus.Result).Grade] = true
	}
	grades := make([]int, 0, len(seen))
	for g := range seen {
		grades = append(grades, g)
	}
	sort.Ints(grades)
	return grades, nil
}
