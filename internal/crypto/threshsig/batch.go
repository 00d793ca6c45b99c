// Batched share verification. The ingress screen (internal/validate)
// verifies every share that arrives on the wire; per-share VerShare
// pays twice for each one — an HMAC to re-derive the signer's share
// key from the master key, then the share MAC itself, both through
// hmac.New, which allocates two hash states per call. This file is the
// amortized path the screen batches onto:
//
//   - Deal caches the derived share key of every signer in the public
//     key, so verification skips the derivation HMAC entirely;
//   - macShort computes HMAC-SHA256 on stack buffers for the short
//     domain-tagged messages every protocol in this repository signs,
//     so verification allocates nothing;
//   - VerBatch verifies a whole batch of shares against one common
//     message in a single pass over the cached keys.
//
// In a production threshold scheme (BLS, RSA-threshold) this seam is
// where algebraic batch verification would live — one pairing product
// or one combined exponentiation for k shares. The HMAC simulation has
// no cross-share algebra to exploit, so the batch win here is the
// constant factor: the common message is built once by the caller, key
// derivation is cached, and the whole pass is allocation-free. VerBatch
// is exact, not probabilistic: it returns true iff every share would
// pass VerShare, so callers fall back to per-share verification only to
// attribute blame when a batch fails.
package threshsig

import (
	"crypto/hmac"
	"crypto/sha256"
)

// hmacBlock is the SHA-256 block size HMAC pads keys to.
const hmacBlock = 64

// macShortMax bounds the message length the stack-buffer HMAC path
// accepts. Every message signed in this repository is a short domain
// tag plus a fixed-width value encoding, far below this.
const macShortMax = 128

// macShort computes HMAC-SHA256(key, m) without heap allocation for
// messages up to macShortMax bytes; longer messages take the stdlib
// path. Keys are exactly Size bytes (one SHA-256 output), which is
// below the block size, so the HMAC key schedule is a straight XOR pad.
func macShort(key [Size]byte, m []byte) [Size]byte {
	if len(m) > macShortMax {
		return mac(key, m)
	}
	var inner [hmacBlock + macShortMax]byte
	for i := range inner[:hmacBlock] {
		inner[i] = 0x36
	}
	for i, b := range key {
		inner[i] = b ^ 0x36
	}
	n := hmacBlock + copy(inner[hmacBlock:], m)
	ih := sha256.Sum256(inner[:n])

	var outer [hmacBlock + Size]byte
	for i := range outer[:hmacBlock] {
		outer[i] = 0x5c
	}
	for i, b := range key {
		outer[i] = b ^ 0x5c
	}
	copy(outer[hmacBlock:], ih[:])
	return sha256.Sum256(outer[:])
}

// shareKeyOf returns signer i's share key, from the cache Deal
// populates or (for keys built before the cache existed, e.g. decoded
// from older state) by deriving it on the spot.
func (pk *PublicKey) shareKeyOf(i int) [Size]byte {
	if pk.keys != nil {
		return pk.keys[i]
	}
	// Cold: cacheless keys only occur in hand-built test fixtures.
	return shareKey(pk.master, i)
}

// VerBatch reports whether every share in the batch is its named
// signer's valid share on the common message m under pk. It is exact:
// true iff VerShare(pk, m, s) holds for every s, including the
// signer-range check. An empty batch is vacuously valid.
//
// This is the amortized ingress path: one message, one pass, cached
// share keys, no allocation. On false the caller cannot tell which
// share failed — fall back to per-share VerShare to attribute blame,
// so one Byzantine share never poisons the honest rest of a batch.
func VerBatch(pk *PublicKey, m []byte, shares []Share) bool {
	for i := range shares {
		s := &shares[i]
		if s.Signer < 0 || s.Signer >= pk.n {
			return false
		}
		want := macShort(pk.shareKeyOf(s.Signer), m)
		if !hmac.Equal(want[:], s.MAC[:]) {
			return false
		}
	}
	return true
}
