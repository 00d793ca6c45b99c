// Package coin implements the paper's CoinFlip primitive (Section 2.2):
// on input an instance index k it yields a value Coin_k uniform in
// [1, Range], which stays uniform from the adversary's view until the
// first honest party queries instance k.
//
// Two instantiations are provided, selectable per experiment:
//
//   - Oracle: the ideal 1-round multivalued coin the paper's round
//     comparisons assume. The value is a deterministic hash of
//     (seed, k). No adversary is ever handed the oracle, so Coin_k stays
//     hidden from it at least until the first honest party enters the
//     coin round (the 1-fairness the paper's analysis needs).
//
//   - Threshold: the real construction from unique threshold signatures
//     in the random-oracle model [16]: every party broadcasts a
//     signature share on k, any t+1 valid shares combine into the unique
//     signature Σ_k, and Coin_k = H(Σ_k) reduced into the range.
//     Unforgeability keeps Coin_k hidden until an honest share is sent;
//     uniqueness makes all parties agree on it.
//
// Both are exposed through the per-party Component interface so protocol
// machines are agnostic to the choice.
package coin

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/sim"
)

// ErrNotEnoughShares indicates the threshold coin could not be
// reconstructed from the delivered messages. With an honest majority and
// threshold t+1 this cannot happen in a synchronous round.
var ErrNotEnoughShares = errors.New("coin: not enough valid shares")

// Component is one party's participant in the coin protocol. A protocol
// machine calls Sends when entering the coin round for instance k and
// Value with that round's delivered messages.
type Component interface {
	// Range returns the size of the coin domain; values are in
	// [1, Range()].
	Range() int
	// Sends returns the messages this party broadcasts in the coin round
	// of instance k (none for the ideal coin).
	Sends(k int) []sim.Send
	// Value extracts Coin_k from the messages delivered in the coin
	// round. Messages of other payload types or instances are ignored.
	Value(k int, in []sim.Message) (int, error)
}

// Oracle is the shared ideal-coin functionality of one execution. All
// honest parties' IdealComponent handles reference a single Oracle.
// It is immutable, so it is safe for concurrent use.
type Oracle struct {
	rangeN int
	seed   int64
}

// NewOracle creates an ideal coin over [1, rangeN], deterministic in
// seed.
func NewOracle(rangeN int, seed int64) *Oracle {
	return &Oracle{rangeN: rangeN, seed: seed}
}

// value hashes (seed, k) into [1, rangeN].
func (o *Oracle) value(k int) int {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(o.seed))
	binary.BigEndian.PutUint64(buf[8:], uint64(k))
	h := sha256.Sum256(buf[:])
	return reduce(h, o.rangeN)
}

// IdealComponent adapts an Oracle to the Component interface. Only the
// honest parties' Value calls compute Coin_k; nothing hands it to the
// adversary.
type IdealComponent struct {
	oracle *Oracle
}

var _ Component = (*IdealComponent)(nil)

// NewIdealComponent returns a party handle on the shared oracle.
func NewIdealComponent(o *Oracle) *IdealComponent { return &IdealComponent{oracle: o} }

// Range implements Component.
func (c *IdealComponent) Range() int { return c.oracle.rangeN }

// Sends implements Component. The ideal coin costs a round but no
// messages.
func (c *IdealComponent) Sends(int) []sim.Send { return nil }

// Value implements Component.
func (c *IdealComponent) Value(k int, _ []sim.Message) (int, error) {
	return c.oracle.value(k), nil
}

// SharePayload carries one party's threshold-signature share for coin
// instance k.
type SharePayload struct {
	// K is the coin instance index.
	K int
	// Share is the sender's signature share on the instance message.
	Share threshsig.Share
}

var _ sim.Payload = SharePayload{}

// SigCount implements sim.Payload.
func (SharePayload) SigCount() int { return 1 }

// ByteSize implements sim.Payload: instance index + signer index +
// share MAC.
func (SharePayload) ByteSize() int { return 8 + 8 + threshsig.Size }

// Threshold is one party's handle on the threshold-signature coin. The
// scheme must have been dealt with threshold t+1 so that the adversary's
// t shares reveal nothing, while the n-t >= t+1 honest shares always
// reconstruct.
type Threshold struct {
	pk     *threshsig.PublicKey
	sk     *threshsig.SecretKey
	rangeN int
	domain string
}

var _ Component = (*Threshold)(nil)

// NewThreshold creates the party's coin component. domain separates coin
// instances of different protocol executions sharing a key setup.
func NewThreshold(pk *threshsig.PublicKey, sk *threshsig.SecretKey, rangeN int, domain string) *Threshold {
	return &Threshold{pk: pk, sk: sk, rangeN: rangeN, domain: domain}
}

// Range implements Component.
func (t *Threshold) Range() int { return t.rangeN }

// InstanceMessage returns the byte string signed for coin instance k
// in the given domain, without a party handle.
func InstanceMessage(domain string, k int) []byte {
	return []byte(fmt.Sprintf("coin/%s/%d", domain, k))
}

// InstanceMessage returns the message signed for coin instance k.
func (t *Threshold) InstanceMessage(k int) []byte {
	return InstanceMessage(t.domain, k)
}

// Sends implements Component: broadcast this party's share on k.
func (t *Threshold) Sends(k int) []sim.Send {
	return sim.BroadcastSend(SharePayload{K: k, Share: threshsig.SignShare(t.sk, t.InstanceMessage(k))})
}

// Value implements Component: filter shares for instance k, combine, and
// hash the unique signature into the range.
func (t *Threshold) Value(k int, in []sim.Message) (int, error) {
	msg := t.InstanceMessage(k)
	shares := make([]threshsig.Share, 0, len(in))
	for _, m := range in {
		p, ok := m.Payload.(SharePayload)
		if !ok || p.K != k {
			continue
		}
		// Authenticated channels: only accept a share claimed by its
		// actual sender, so a Byzantine party cannot replay an honest
		// share it has not seen (it could anyway only replay real ones).
		if p.Share.Signer != m.From {
			continue
		}
		shares = append(shares, p.Share)
	}
	sig, err := threshsig.CombineFiltered(t.pk, msg, shares)
	if err != nil {
		return 0, fmt.Errorf("%w: instance %d: %v", ErrNotEnoughShares, k, err)
	}
	return ValueFromSignature(sig, t.rangeN), nil
}

// ValueFromSignature hashes a combined signature into [1, rangeN]; this
// is the random-oracle step. Any holder of the unique signature computes
// the same value — including the adversary the moment it sees t+1 shares.
func ValueFromSignature(sig threshsig.Signature, rangeN int) int {
	return reduce(sha256.Sum256(sig[:]), rangeN)
}

// reduce maps a hash into [1, rangeN]. For power-of-two ranges (the
// one-shot BA uses rangeN = 2^κ) the reduction is exactly uniform; for
// small odd ranges the modulo bias over 64 bits is below 2^-50.
func reduce(h [sha256.Size]byte, rangeN int) int {
	v := binary.BigEndian.Uint64(h[:8]) >> 1 // keep it positive as int64
	return int(v%uint64(rangeN)) + 1
}
