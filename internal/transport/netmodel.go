package transport

import (
	"fmt"
	"time"
)

// NetModel is a seeded WAN-like latency model for a whole execution:
// every directed link gets a stable asymmetry multiplier and a
// per-round jitter draw, all pure functions of (Seed, from, to,
// round). The model plugs in behind the FaultInjector.Delay hook
// (internal/chaos's Schedule.Delay adds it for a net: segment): in a
// hub-synchronized round a node's traffic is gathered only once its
// slowest message has arrived, so the model surfaces as a per-node
// egress delay equal to the node's worst outgoing link that round.
// Values are deterministic — identical seeds replay identical timing —
// and safe for concurrent use.
type NetModel struct {
	// Name labels the distribution ("lan", "wan", "sat", ...).
	Name string
	// Seed drives every per-link and per-round draw.
	Seed int64
	// Base is the median one-way link latency before asymmetry.
	Base time.Duration
	// Jitter bounds the extra per-(link, round) latency; draws are
	// quadratically skewed toward zero, so spikes near the bound are
	// rare, like real WAN tail latency.
	Jitter time.Duration
	// Asym spreads each directed link's stable multiplier over
	// [1-Asym, 1+Asym]; from→to and to→from draw independently.
	Asym float64
}

// netModels are the named distributions, mild enough that the worst
// link stays well inside the chaos suites' round timeouts.
var netModels = map[string]NetModel{
	"lan": {Name: "lan", Base: 200 * time.Microsecond, Jitter: 300 * time.Microsecond, Asym: 0.2},
	"wan": {Name: "wan", Base: 20 * time.Millisecond, Jitter: 15 * time.Millisecond, Asym: 0.5},
	"sat": {Name: "sat", Base: 60 * time.Millisecond, Jitter: 25 * time.Millisecond, Asym: 0.3},
}

// NetModelNames lists the named latency models in canonical order.
func NetModelNames() []string { return []string{"lan", "wan", "sat"} }

// LookupNetModel resolves a named latency model with the given seed.
func LookupNetModel(name string, seed int64) (*NetModel, bool) {
	m, ok := netModels[name]
	if !ok {
		return nil, false
	}
	m.Seed = seed
	return &m, true
}

// MaxLinkDelay bounds any single link's delay under the model: the
// worst asymmetry multiplier on Base plus the full jitter span. Useful
// for sizing round timeouts before a run starts.
func (m *NetModel) MaxLinkDelay() time.Duration {
	return time.Duration(float64(m.Base)*(1+m.Asym)) + m.Jitter
}

// mix64 is SplitMix64's finalizer: a cheap, well-distributed 64-bit
// mixer for deriving per-link randomness without shared rand state.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// u01 hashes the model seed with up to three tags into [0, 1).
func (m *NetModel) u01(tag, a, b, c uint64) float64 {
	x := mix64(uint64(m.Seed) ^ tag)
	x = mix64(x ^ a*0x9e3779b97f4a7c15)
	x = mix64(x ^ b*0xbf58476d1ce4e5b9)
	x = mix64(x ^ c*0x94d049bb133111eb)
	return float64(x>>11) / float64(1<<53)
}

// Tag constants separating the model's random streams.
const (
	netTagAsym = 0x6173796d // "asym"
	netTagJit  = 0x6a697474 // "jitt"
)

// LinkDelay returns the one-way latency of the directed link from→to
// in the given round: Base scaled by the link's stable asymmetry
// multiplier plus a per-round jitter draw.
func (m *NetModel) LinkDelay(from, to, round int) time.Duration {
	mult := 1 + m.Asym*(2*m.u01(netTagAsym, uint64(from), uint64(to), 0)-1)
	jit := m.u01(netTagJit, uint64(from), uint64(to), uint64(round))
	return time.Duration(float64(m.Base)*mult + float64(m.Jitter)*jit*jit)
}

// Egress returns node id's send delay in a round: the latency of its
// slowest outgoing link, which is when the synchronous hub can
// complete the node's gather.
func (m *NetModel) Egress(id, round, n int) time.Duration {
	var worst time.Duration
	for to := 0; to < n; to++ {
		if to == id {
			continue
		}
		if d := m.LinkDelay(id, to, round); d > worst {
			worst = d
		}
	}
	return worst
}

// String aids logs and errors.
func (m *NetModel) String() string {
	return fmt.Sprintf("%s(seed=%d base=%s jitter=%s asym=%.2f)", m.Name, m.Seed, m.Base, m.Jitter, m.Asym)
}
