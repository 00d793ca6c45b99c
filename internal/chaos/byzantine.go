package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"

	"proxcensus/internal/adversary"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
	"proxcensus/internal/transport"
	"proxcensus/internal/wire"
)

// dupFloodEntries is RoleDupFlood's per-round batch size: comfortably
// over transport.DefaultFloodLimit, so the hub's cap always engages.
const dupFloodEntries = 300

// byzSeed derives a Byzantine node's private randomness from the
// schedule digest. The schedule fully determines every attacker's
// byte stream, so replaying a seed replays the attack exactly.
func byzSeed(s Schedule, id int) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("byz|%s|%d", s.Fingerprint(), id)))
	return int64(binary.BigEndian.Uint64(h[:8]))
}

// byzTarget picks the straddle boost target: the lowest non-faulty
// node, mirroring adversary.ExpandAdaptiveSplit's lowest-ID choice.
func byzTarget(s Schedule, self int) int {
	faulty := make([]bool, s.N)
	for _, id := range s.FaultyNodes() {
		faulty[id] = true
	}
	for id := 0; id < s.N; id++ {
		if !faulty[id] {
			return id
		}
	}
	return (self + 1) % s.N
}

// runByzantine drives one Byzantine node over TCP: it claims its
// authenticated slot with a normal hello, then speaks its role's
// attack every round, consuming the hub's deliveries to stay on the
// round barrier. Benign faults scheduled on a Byzantine node (drop,
// delay, dup) are ignored — the node is already as hostile as its
// role allows.
func runByzantine(addr string, id int, role Role, s Schedule, cfg transport.Config) error {
	c, err := transport.DialRaw(addr, id, 0, cfg)
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()
	rng := rand.New(rand.NewSource(byzSeed(s, id)))
	target := byzTarget(s, id)
	var prev []wire.BatchMsg
	for round := 1; round <= s.Rounds; round++ {
		if err := byzSend(c, round, role, rng, target, s.N, prev); err != nil {
			return fmt.Errorf("round %d send: %w", round, err)
		}
		if _, prev, err = c.Recv(); err != nil {
			return fmt.Errorf("round %d recv: %w", round, err)
		}
	}
	return nil
}

// byzSend emits one round of the role's attack.
func byzSend(c *transport.RawClient, round int, role Role, rng *rand.Rand, target, n int, prev []wire.BatchMsg) error {
	switch role {
	case RoleEquivocate:
		// Conflicting pairs of the same class to every receiver: echoes
		// for the echo-based protocols, votes for the linear one.
		// Whichever class the running protocol expects trips the ingress
		// equivocation detector; the rest are type-rejected.
		batch, err := encodeBroadcast(
			proxcensus.EchoPayload{Z: 0, H: 0},
			proxcensus.EchoPayload{Z: 1, H: 0},
			proxcensus.LinearVote{V: 0},
			proxcensus.LinearVote{V: 1},
		)
		if err != nil {
			return err
		}
		return c.SendBatch(round, batch)

	case RoleGarbage:
		// Wild-but-decodable payloads mixed with undecodable bytes, each
		// aimed at a random receiver or broadcast.
		var batch []wire.BatchMsg
		for i := 0; i < 4; i++ {
			raw, err := wire.Encode(adversary.GarbagePayload(rng))
			if err != nil {
				return err
			}
			batch = append(batch, wire.BatchMsg{Addr: garbageAddr(rng, n), Payload: raw})
		}
		for i := 0; i < 2; i++ {
			batch = append(batch, wire.BatchMsg{Addr: garbageAddr(rng, n), Payload: adversary.GarbageBytes(rng)})
		}
		return c.SendBatch(round, batch)

	case RoleReplay:
		// Re-broadcast bytes received last round; stale payloads carry
		// real signatures, so only phase/duplicate screening catches them.
		if len(prev) == 0 {
			batch, err := encodeBroadcast(proxcensus.EchoPayload{Z: 1, H: 0})
			if err != nil {
				return err
			}
			return c.SendBatch(round, batch)
		}
		k := 1 + rng.Intn(3)
		batch := make([]wire.BatchMsg, k)
		for i := range batch {
			batch[i] = wire.BatchMsg{Addr: sim.Broadcast, Payload: prev[rng.Intn(len(prev))].Payload}
		}
		return c.SendBatch(round, batch)

	case RoleStraddle:
		// The slot-straddle of adversary.ExpandAdaptiveSplit, adapted to
		// the wire: the hub's round barrier forbids rushing, so the split
		// is static — boost the lowest honest node with a graded 1, feed
		// plain 0 to everyone else. Grades stay inside round 1's domain.
		h := 1
		if round == 1 {
			h = 0
		}
		up, err := wire.Encode(proxcensus.EchoPayload{Z: 1, H: h})
		if err != nil {
			return err
		}
		down, err := wire.Encode(proxcensus.EchoPayload{Z: 0, H: 0})
		if err != nil {
			return err
		}
		batch := make([]wire.BatchMsg, 0, n)
		for p := 0; p < n; p++ {
			payload := down
			if p == target {
				payload = up
			}
			batch = append(batch, wire.BatchMsg{Addr: p, Payload: payload})
		}
		return c.SendBatch(round, batch)

	case RoleWrongRound:
		// A frame tagged for the previous round first — the hub must
		// discard it as stale and keep waiting — then the real batch.
		stale, err := encodeBroadcast(proxcensus.EchoPayload{Z: 0, H: 0})
		if err != nil {
			return err
		}
		if err := c.SendBatch(round-1, stale); err != nil {
			return err
		}
		batch, err := encodeBroadcast(proxcensus.EchoPayload{Z: 1, H: 0})
		if err != nil {
			return err
		}
		return c.SendBatch(round, batch)

	case RoleDupFlood:
		// Hundreds of identical entries: the hub truncates at its flood
		// cap and the ingress layer collapses the survivors to one.
		raw, err := wire.Encode(proxcensus.EchoPayload{Z: 1, H: 0})
		if err != nil {
			return err
		}
		batch := make([]wire.BatchMsg, dupFloodEntries)
		for i := range batch {
			batch[i] = wire.BatchMsg{Addr: sim.Broadcast, Payload: raw}
		}
		return c.SendBatch(round, batch)

	case RoleMalformed:
		// Batches of payload bytes that do not decode at all.
		batch := make([]wire.BatchMsg, 8)
		for i := range batch {
			batch[i] = wire.BatchMsg{Addr: sim.Broadcast, Payload: adversary.GarbageBytes(rng)}
		}
		return c.SendBatch(round, batch)

	default:
		return fmt.Errorf("chaos: unknown byzantine role %q", role)
	}
}

// encodeBroadcast encodes payloads as broadcast batch entries.
func encodeBroadcast(payloads ...sim.Payload) ([]wire.BatchMsg, error) {
	out := make([]wire.BatchMsg, len(payloads))
	for i, p := range payloads {
		raw, err := wire.Encode(p)
		if err != nil {
			return nil, err
		}
		out[i] = wire.BatchMsg{Addr: sim.Broadcast, Payload: raw}
	}
	return out, nil
}

// garbageAddr picks a delivery address: any node or broadcast.
func garbageAddr(rng *rand.Rand, n int) int {
	return rng.Intn(n+1) - 1 // -1 is sim.Broadcast
}
