package threshsig

import (
	"crypto/hmac"
	"crypto/sha256"
	"testing"
	"testing/quick"
)

// stdlibMAC is the reference mac must equal: HMAC-SHA256 through the
// standard library.
func stdlibMAC(key [Size]byte, m []byte) [Size]byte {
	h := hmac.New(sha256.New, key[:])
	h.Write(m)
	var out [Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// TestMacShortMatchesStdlib: mac's stack-buffer path for short
// messages must agree with the stdlib HMAC byte for byte, across the
// whole short range and past the spill boundary.
func TestMacShortMatchesStdlib(t *testing.T) {
	key := testSeed(42)
	m := make([]byte, macInlineMax+64)
	for i := range m {
		m[i] = byte(i*7 + 3)
	}
	for l := 0; l <= len(m); l++ {
		if mac(key, m[:l]) != stdlibMAC(key, m[:l]) {
			t.Fatalf("mac != stdlib HMAC at message length %d", l)
		}
	}
}

// TestQuickMacShort: random keys and messages agree with the stdlib HMAC.
func TestQuickMacShort(t *testing.T) {
	f := func(keySeed byte, m []byte) bool {
		key := testSeed(keySeed)
		return mac(key, m) == stdlibMAC(key, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestVerShareAllocs: checking a share against the dealer's cached key
// must not allocate — the ingress screen runs it on every share.
func TestVerShareAllocs(t *testing.T) {
	pk, sks := deal(t, 16, 11)
	m := []byte("prox-linear/sigma/\x00\x00\x00\x00\x00\x00\x00\x01")
	shares := make([]Share, 0, 16)
	for _, sk := range sks {
		shares = append(shares, SignShare(sk, m))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, s := range shares {
			if !VerShare(pk, m, s) {
				t.Fatal("valid share rejected")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("VerShare allocated %.1f objects per 16 shares, want 0", allocs)
	}
}

func BenchmarkVerShare(b *testing.B) {
	pk, sks, _ := Deal(16, 11, testSeed(1))
	m := []byte("benchmark message for verifying")
	s := SignShare(sks[3], m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !VerShare(pk, m, s) {
			b.Fatal("valid share rejected")
		}
	}
}
