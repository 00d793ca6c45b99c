// Package threshsig implements a simulated unique threshold signature
// scheme with the exact interface assumed by the paper (Section 2.2):
// a trusted dealer hands every party a secret key share, anyone can
// verify signature shares against a common public key, and any set of
// `threshold` valid shares on the same message combines into a unique
// full signature.
//
// The paper treats threshold signatures as idealized objects: perfectly
// unforgeable given fewer than `threshold` shares, and unique per
// (message, public key). This package realizes that ideal object inside a
// simulation using deterministic HMAC-SHA256:
//
//   - the dealer samples a master key K,
//   - party i's share key is k_i = HMAC(K, "share"||i),
//   - a signature share on m is HMAC(k_i, m),
//   - the combined signature on m is HMAC(K, m).
//
// Deal derives every share key once and keeps it in the public key, so
// checking a share is one HMAC. Every HMAC here goes through mac, which
// hashes the short domain-tagged messages the protocols sign on stack
// buffers and allocates nothing.
//
// Combine structurally enforces the threshold: it refuses to produce a
// signature unless given `threshold` valid shares from distinct signers.
// Uniqueness holds by determinism. Unforgeability holds for every
// adversary that interacts through this API (the public key embeds the
// master key so that verification is possible in-process, but no exported
// operation signs without a secret key share). This matches how the paper
// uses the primitive; see DESIGN.md §2 for the substitution argument.
package threshsig

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Size is the byte length of shares and signatures (SHA-256 output).
const Size = sha256.Size

// Errors returned by this package.
var (
	// ErrInsufficientShares indicates Combine was given fewer distinct
	// valid shares than the scheme threshold.
	ErrInsufficientShares = errors.New("threshsig: insufficient valid shares")
	// ErrInvalidShare indicates a share failed verification.
	ErrInvalidShare = errors.New("threshsig: invalid share")
	// ErrDuplicateSigner indicates two shares from the same signer were
	// presented to Combine.
	ErrDuplicateSigner = errors.New("threshsig: duplicate signer")
	// ErrSignerRange indicates a share names a signer outside [0, n).
	ErrSignerRange = errors.New("threshsig: signer index out of range")
	// ErrBadParams indicates invalid dealer parameters.
	ErrBadParams = errors.New("threshsig: invalid parameters")
)

// Share is a signature share on some message by one signer.
type Share struct {
	// Signer is the index of the issuing party in [0, n).
	Signer int
	// MAC is the share value.
	MAC [Size]byte
}

// Signature is a combined (full) threshold signature. It is unique per
// (public key, message).
type Signature [Size]byte

// PublicKey is the common public key output by the dealer. It allows
// verifying shares and combined signatures.
//
// The embedded master key is an artifact of the HMAC simulation; it is
// unexported and no exported method uses it to create signatures.
type PublicKey struct {
	n         int
	threshold int
	master    [Size]byte
	// keys holds every signer's share key, derived once by Deal, so
	// VerShare skips the key-derivation HMAC.
	keys [][Size]byte
}

// N returns the number of parties the key was dealt for.
func (pk *PublicKey) N() int { return pk.n }

// Threshold returns the number of distinct valid shares required by
// Combine.
func (pk *PublicKey) Threshold() int { return pk.threshold }

// SecretKey is one party's share of the signing key.
type SecretKey struct {
	signer int
	key    [Size]byte
}

// Signer returns the index of the party holding this key.
func (sk *SecretKey) Signer() int { return sk.signer }

// Deal runs the trusted-dealer setup for a threshold-out-of-n scheme.
// The dealer is deterministic in seed, so experiments are reproducible.
// It returns the common public key and one secret key per party.
func Deal(n, threshold int, seed [Size]byte) (*PublicKey, []*SecretKey, error) {
	if n <= 0 || threshold <= 0 || threshold > n {
		return nil, nil, fmt.Errorf("%w: n=%d threshold=%d", ErrBadParams, n, threshold)
	}
	pk := &PublicKey{n: n, threshold: threshold}
	pk.master = mac(seed, []byte("threshsig/master"))
	pk.keys = make([][Size]byte, n)
	sks := make([]*SecretKey, n)
	for i := 0; i < n; i++ {
		pk.keys[i] = shareKey(pk.master, i)
		sks[i] = &SecretKey{signer: i, key: pk.keys[i]}
	}
	return pk, sks, nil
}

// SignShare computes party sk's signature share on message m.
func SignShare(sk *SecretKey, m []byte) Share {
	return Share{Signer: sk.signer, MAC: mac(sk.key, m)}
}

// VerShare reports whether share s is party s.Signer's valid share on m
// under pk.
func VerShare(pk *PublicKey, m []byte, s Share) bool {
	if s.Signer < 0 || s.Signer >= pk.n {
		return false
	}
	want := mac(pk.keys[s.Signer], m)
	return hmac.Equal(want[:], s.MAC[:])
}

// Combine verifies the given shares on m and, if at least pk.Threshold()
// of them are valid and from distinct signers, returns the unique
// combined signature on m. It is deterministic: any honest party
// combining any qualifying share set obtains the same Signature.
func Combine(pk *PublicKey, m []byte, shares []Share) (Signature, error) {
	var zero Signature
	seen := make(map[int]struct{}, len(shares))
	valid := 0
	for _, s := range shares {
		if s.Signer < 0 || s.Signer >= pk.n {
			return zero, fmt.Errorf("%w: signer %d (n=%d)", ErrSignerRange, s.Signer, pk.n)
		}
		if _, dup := seen[s.Signer]; dup {
			return zero, fmt.Errorf("%w: signer %d", ErrDuplicateSigner, s.Signer)
		}
		seen[s.Signer] = struct{}{}
		if !VerShare(pk, m, s) {
			return zero, fmt.Errorf("%w: signer %d", ErrInvalidShare, s.Signer)
		}
		valid++
	}
	if valid < pk.threshold {
		return zero, fmt.Errorf("%w: got %d, need %d", ErrInsufficientShares, valid, pk.threshold)
	}
	return Signature(mac(pk.master, m)), nil
}

// CombineFiltered is a lenient variant of Combine for protocol inboxes:
// it silently drops invalid, duplicate or out-of-range shares and only
// errors (with ErrInsufficientShares) when fewer than the threshold
// survive. Byzantine senders can always supply garbage shares, so
// protocol code should not abort on them. It stops verifying as soon as
// the threshold is met.
func CombineFiltered(pk *PublicKey, m []byte, shares []Share) (Signature, error) {
	seen := make(map[int]struct{}, pk.threshold)
	for _, s := range shares {
		if _, dup := seen[s.Signer]; dup || !VerShare(pk, m, s) {
			continue
		}
		seen[s.Signer] = struct{}{}
		if len(seen) == pk.threshold {
			return Signature(mac(pk.master, m)), nil
		}
	}
	return Signature{}, fmt.Errorf("%w: got %d, need %d", ErrInsufficientShares, len(seen), pk.threshold)
}

// Ver reports whether sig is the valid combined signature on m under pk.
func Ver(pk *PublicKey, m []byte, sig Signature) bool {
	want := mac(pk.master, m)
	return hmac.Equal(want[:], sig[:])
}

// shareTag domain-separates share-key derivation from signing.
const shareTag = "threshsig/share/"

// shareKey derives party i's share key from the master key.
func shareKey(master [Size]byte, i int) [Size]byte {
	var msg [len(shareTag) + 8]byte
	copy(msg[:], shareTag)
	binary.BigEndian.PutUint64(msg[len(shareTag):], uint64(i))
	return mac(master, msg[:])
}

// hmacBlock is the SHA-256 block size HMAC pads keys to.
const hmacBlock = 64

// macInlineMax bounds the message length mac hashes on stack buffers.
// Every message signed in this repository is a short domain tag plus a
// fixed-width value encoding, far below it.
const macInlineMax = 128

// mac computes HMAC-SHA256(key, m). Keys are exactly Size bytes, below
// the block size, so the key schedule is a straight XOR pad, and a
// message up to macInlineMax bytes is hashed without heap allocation.
func mac(key [Size]byte, m []byte) [Size]byte {
	if len(m) > macInlineMax {
		return macLong(key, m)
	}
	var inner [hmacBlock + macInlineMax]byte
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

// macLong is mac for messages past macInlineMax, through the stdlib
// HMAC. It is a function of its own because hmac.New keeps the key
// slice: inline, it would move every mac call's key to the heap.
func macLong(key [Size]byte, m []byte) [Size]byte {
	h := hmac.New(sha256.New, key[:])
	h.Write(m)
	var out [Size]byte
	h.Sum(out[:0])
	return out
}
