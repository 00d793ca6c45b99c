package threshsig

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func testSeed(b byte) [Size]byte {
	var s [Size]byte
	for i := range s {
		s[i] = b
	}
	return s
}

func deal(t *testing.T, n, k int) (*PublicKey, []*SecretKey) {
	t.Helper()
	pk, sks, err := Deal(n, k, testSeed(7))
	if err != nil {
		t.Fatalf("Deal(%d,%d): %v", n, k, err)
	}
	return pk, sks
}

func TestDealParams(t *testing.T) {
	tests := []struct {
		name    string
		n, k    int
		wantErr bool
	}{
		{"ok minimal", 1, 1, false},
		{"ok typical", 7, 5, false},
		{"zero n", 0, 1, true},
		{"negative n", -3, 1, true},
		{"zero threshold", 5, 0, true},
		{"threshold above n", 5, 6, true},
		{"threshold equals n", 5, 5, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := Deal(tt.n, tt.k, testSeed(1))
			if gotErr := err != nil; gotErr != tt.wantErr {
				t.Fatalf("Deal(%d,%d) err=%v, wantErr=%v", tt.n, tt.k, err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadParams) {
				t.Fatalf("error %v should wrap ErrBadParams", err)
			}
		})
	}
}

func TestDealDeterministic(t *testing.T) {
	pk1, sk1, err := Deal(4, 3, testSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	pk2, sk2, err := Deal(4, 3, testSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	m := []byte("msg")
	s1 := SignShare(sk1[2], m)
	s2 := SignShare(sk2[2], m)
	if s1 != s2 {
		t.Error("same seed must produce identical shares")
	}
	if !VerShare(pk2, m, s1) {
		t.Error("share must verify under identically dealt key")
	}
	_ = pk1
}

func TestDealSeedSeparation(t *testing.T) {
	_, skA, _ := Deal(4, 3, testSeed(1))
	pkB, _, _ := Deal(4, 3, testSeed(2))
	m := []byte("msg")
	if VerShare(pkB, m, SignShare(skA[0], m)) {
		t.Error("share from seed A must not verify under seed B's key")
	}
}

func TestSignVerifyShare(t *testing.T) {
	pk, sks := deal(t, 5, 3)
	m := []byte("hello world")
	for i, sk := range sks {
		s := SignShare(sk, m)
		if s.Signer != i {
			t.Fatalf("share signer = %d, want %d", s.Signer, i)
		}
		if !VerShare(pk, m, s) {
			t.Errorf("valid share %d failed verification", i)
		}
	}
}

func TestVerShareRejects(t *testing.T) {
	pk, sks := deal(t, 5, 3)
	m := []byte("hello")
	good := SignShare(sks[0], m)

	t.Run("wrong message", func(t *testing.T) {
		if VerShare(pk, []byte("other"), good) {
			t.Error("share verified for wrong message")
		}
	})
	t.Run("claimed wrong signer", func(t *testing.T) {
		forged := good
		forged.Signer = 1
		if VerShare(pk, m, forged) {
			t.Error("share verified under wrong signer index")
		}
	})
	t.Run("flipped bit", func(t *testing.T) {
		forged := good
		forged.MAC[0] ^= 1
		if VerShare(pk, m, forged) {
			t.Error("tampered share verified")
		}
	})
	t.Run("signer out of range", func(t *testing.T) {
		forged := good
		forged.Signer = 99
		if VerShare(pk, m, forged) {
			t.Error("out-of-range signer verified")
		}
		forged.Signer = -1
		if VerShare(pk, m, forged) {
			t.Error("negative signer verified")
		}
	})
}

func TestCombine(t *testing.T) {
	pk, sks := deal(t, 7, 5)
	m := []byte("combine me")
	shares := make([]Share, 0, 7)
	for _, sk := range sks {
		shares = append(shares, SignShare(sk, m))
	}

	t.Run("exact threshold", func(t *testing.T) {
		sig, err := Combine(pk, m, shares[:5])
		if err != nil {
			t.Fatal(err)
		}
		if !Ver(pk, m, sig) {
			t.Error("combined signature failed Ver")
		}
	})
	t.Run("above threshold", func(t *testing.T) {
		sig, err := Combine(pk, m, shares)
		if err != nil {
			t.Fatal(err)
		}
		if !Ver(pk, m, sig) {
			t.Error("combined signature failed Ver")
		}
	})
	t.Run("below threshold", func(t *testing.T) {
		_, err := Combine(pk, m, shares[:4])
		if !errors.Is(err, ErrInsufficientShares) {
			t.Fatalf("err = %v, want ErrInsufficientShares", err)
		}
	})
	t.Run("duplicate signer", func(t *testing.T) {
		dup := append(append([]Share{}, shares[:4]...), shares[0])
		_, err := Combine(pk, m, dup)
		if !errors.Is(err, ErrDuplicateSigner) {
			t.Fatalf("err = %v, want ErrDuplicateSigner", err)
		}
	})
	t.Run("invalid share", func(t *testing.T) {
		bad := append([]Share{}, shares[:5]...)
		bad[3].MAC[5] ^= 0xff
		_, err := Combine(pk, m, bad)
		if !errors.Is(err, ErrInvalidShare) {
			t.Fatalf("err = %v, want ErrInvalidShare", err)
		}
	})
	t.Run("signer range", func(t *testing.T) {
		bad := append([]Share{}, shares[:5]...)
		bad[0].Signer = 7
		_, err := Combine(pk, m, bad)
		if !errors.Is(err, ErrSignerRange) {
			t.Fatalf("err = %v, want ErrSignerRange", err)
		}
	})
}

func TestCombineUniqueness(t *testing.T) {
	pk, sks := deal(t, 9, 5)
	m := []byte("unique")
	all := make([]Share, 0, 9)
	for _, sk := range sks {
		all = append(all, SignShare(sk, m))
	}
	sigA, err := Combine(pk, m, all[:5])
	if err != nil {
		t.Fatal(err)
	}
	sigB, err := Combine(pk, m, all[4:])
	if err != nil {
		t.Fatal(err)
	}
	if sigA != sigB {
		t.Error("different qualifying share sets must combine to the same signature")
	}
}

func TestCombineFiltered(t *testing.T) {
	pk, sks := deal(t, 7, 5)
	m := []byte("filtered")
	shares := make([]Share, 0, 10)
	for _, sk := range sks[:5] {
		shares = append(shares, SignShare(sk, m))
	}
	// Garbage a Byzantine sender might inject: invalid MAC, duplicate,
	// out-of-range signer.
	garbage := SignShare(sks[6], []byte("other message"))
	shares = append(shares, garbage, shares[0], Share{Signer: -2})

	sig, err := CombineFiltered(pk, m, shares)
	if err != nil {
		t.Fatalf("CombineFiltered with 5 good shares: %v", err)
	}
	if !Ver(pk, m, sig) {
		t.Error("filtered combine produced invalid signature")
	}
	// The same shares behind the garbage combine to the same signature.
	reordered := append(append([]Share(nil), shares[5:]...), shares[:5]...)
	if again, err := CombineFiltered(pk, m, reordered); err != nil || again != sig {
		t.Errorf("garbage-first CombineFiltered = %x, %v; want %x", again, err, sig)
	}

	_, err = CombineFiltered(pk, m, shares[:4])
	if !errors.Is(err, ErrInsufficientShares) {
		t.Fatalf("err = %v, want ErrInsufficientShares", err)
	}
}

func TestVerRejectsForgery(t *testing.T) {
	pk, sks := deal(t, 4, 3)
	m := []byte("target")
	shares := []Share{SignShare(sks[0], m), SignShare(sks[1], m), SignShare(sks[2], m)}
	sig, err := Combine(pk, m, shares)
	if err != nil {
		t.Fatal(err)
	}
	if Ver(pk, []byte("other"), sig) {
		t.Error("signature verified for a different message")
	}
	var forged Signature
	copy(forged[:], sig[:])
	forged[0] ^= 1
	if Ver(pk, m, forged) {
		t.Error("tampered signature verified")
	}
}

// TestQuickShareRoundTrip: every share signed by a dealt key verifies,
// for arbitrary messages and party counts.
func TestQuickShareRoundTrip(t *testing.T) {
	f := func(msg []byte, nSeed, iSeed uint8) bool {
		n := int(nSeed%16) + 1
		k := n/2 + 1
		pk, sks, err := Deal(n, k, testSeed(3))
		if err != nil {
			return false
		}
		i := int(iSeed) % n
		return VerShare(pk, msg, SignShare(sks[i], msg))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickUniqueness: combining any random qualifying subset yields the
// same signature.
func TestQuickUniqueness(t *testing.T) {
	pk, sks, err := Deal(10, 6, testSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte, permSeed int64) bool {
		rng := rand.New(rand.NewSource(permSeed))
		perm := rng.Perm(10)
		shares := make([]Share, 6)
		for j := 0; j < 6; j++ {
			shares[j] = SignShare(sks[perm[j]], msg)
		}
		sig, err := Combine(pk, msg, shares)
		if err != nil {
			return false
		}
		want := SignShare(sks[0], msg) // deterministic reference via full set
		_ = want
		all := make([]Share, 10)
		for j := range sks {
			all[j] = SignShare(sks[j], msg)
		}
		ref, err := Combine(pk, msg, all)
		if err != nil {
			return false
		}
		return sig == ref && Ver(pk, msg, sig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickNoCrossMessage: a share on one message never verifies on a
// different message.
func TestQuickNoCrossMessage(t *testing.T) {
	pk, sks, err := Deal(4, 3, testSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		return !VerShare(pk, b, SignShare(sks[1], a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSignShare(b *testing.B) {
	_, sks, _ := Deal(16, 11, testSeed(1))
	m := []byte("benchmark message for signing")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SignShare(sks[0], m)
	}
}

func BenchmarkCombine(b *testing.B) {
	pk, sks, _ := Deal(16, 11, testSeed(1))
	m := []byte("benchmark message for combining")
	shares := make([]Share, 11)
	for i := 0; i < 11; i++ {
		shares[i] = SignShare(sks[i], m)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Combine(pk, m, shares); err != nil {
			b.Fatal(err)
		}
	}
}
