package coin

import (
	"errors"
	"testing"
	"testing/quick"

	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/sim"
)

func TestOracleRange(t *testing.T) {
	c := NewIdealComponent(NewOracle(16, 7))
	if c.Range() != 16 {
		t.Fatalf("Range = %d, want 16", c.Range())
	}
	for k := 0; k < 1000; k++ {
		v, err := c.Value(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v < 1 || v > 16 {
			t.Fatalf("Coin_%d = %d out of [1,16]", k, v)
		}
	}
}

func TestOracleDeterministicPerSeed(t *testing.T) {
	a, b := NewIdealComponent(NewOracle(8, 3)), NewIdealComponent(NewOracle(8, 3))
	c := NewOracle(8, 4)
	same, diff := true, true
	for k := 0; k < 64; k++ {
		va, _ := a.Value(k, nil)
		vb, _ := b.Value(k, nil)
		if va != vb {
			same = false
		}
		if va != c.value(k) {
			diff = false
		}
	}
	if !same {
		t.Error("same seed must give identical coins")
	}
	if diff {
		t.Error("different seeds should give different coin sequences")
	}
}

func TestOracleRoughUniformity(t *testing.T) {
	const rangeN, samples = 4, 4000
	o := NewOracle(rangeN, 99)
	counts := make([]int, rangeN+1)
	for k := 0; k < samples; k++ {
		counts[o.value(k)]++
	}
	want := samples / rangeN
	for v := 1; v <= rangeN; v++ {
		if counts[v] < want/2 || counts[v] > want*2 {
			t.Errorf("value %d appeared %d times, want ~%d", v, counts[v], want)
		}
	}
}

func dealCoin(t *testing.T, n, thresh int) (*threshsig.PublicKey, []*threshsig.SecretKey) {
	t.Helper()
	var seed [threshsig.Size]byte
	seed[0] = 0xc0
	pk, sks, err := threshsig.Deal(n, thresh, seed)
	if err != nil {
		t.Fatal(err)
	}
	return pk, sks
}

func thresholdParties(pk *threshsig.PublicKey, sks []*threshsig.SecretKey, rangeN int) []*Threshold {
	out := make([]*Threshold, len(sks))
	for i, sk := range sks {
		out[i] = NewThreshold(pk, sk, rangeN, "test")
	}
	return out
}

// collectRound simulates one broadcast round of coin shares among the
// given parties and returns every party's inbox.
func collectRound(tcs []*Threshold, k int, senders []int) []sim.Message {
	inbox := make([]sim.Message, 0, len(senders))
	for _, i := range senders {
		for _, s := range tcs[i].Sends(k) {
			inbox = append(inbox, sim.Message{From: i, To: 0, Round: 1, Payload: s.Payload})
		}
	}
	return inbox
}

func TestThresholdCoinAgreement(t *testing.T) {
	const n, tcorr, rangeN = 7, 2, 9
	pk, sks := dealCoin(t, n, tcorr+1)
	tcs := thresholdParties(pk, sks, rangeN)

	all := []int{0, 1, 2, 3, 4, 5, 6}
	inbox := collectRound(tcs, 3, all)
	var first int
	for i, tc := range tcs {
		v, err := tc.Value(3, inbox)
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
		if v < 1 || v > rangeN {
			t.Fatalf("party %d coin %d out of [1,%d]", i, v, rangeN)
		}
		if i == 0 {
			first = v
		} else if v != first {
			t.Fatalf("party %d coin %d != party 0 coin %d", i, v, first)
		}
	}

	// Different subsets above the threshold agree too (uniqueness).
	sub := collectRound(tcs, 3, []int{4, 5, 6})
	v, err := tcs[0].Value(3, sub)
	if err != nil {
		t.Fatal(err)
	}
	if v != first {
		t.Errorf("subset-combined coin %d != full coin %d", v, first)
	}
}

func TestThresholdCoinInsufficient(t *testing.T) {
	const n, tcorr = 7, 2
	pk, sks := dealCoin(t, n, tcorr+1)
	tcs := thresholdParties(pk, sks, 4)
	inbox := collectRound(tcs, 0, []int{1, 2}) // only 2 < t+1 = 3 shares
	if _, err := tcs[0].Value(0, inbox); !errors.Is(err, ErrNotEnoughShares) {
		t.Fatalf("err = %v, want ErrNotEnoughShares", err)
	}
}

func TestThresholdCoinIgnoresGarbage(t *testing.T) {
	const n, tcorr = 4, 1
	pk, sks := dealCoin(t, n, tcorr+1)
	tcs := thresholdParties(pk, sks, 8)
	inbox := collectRound(tcs, 7, []int{0}) // 1 < threshold = 2 genuine shares
	// Garbage: wrong instance, spoofed signer, alien payload type.
	wrongK := tcs[2].Sends(8)[0].Payload.(SharePayload)
	inbox = append(inbox,
		sim.Message{From: 2, To: 0, Payload: wrongK},
		sim.Message{From: 3, To: 0, Payload: SharePayload{K: 7, Share: threshsig.SignShare(sks[2], tcs[2].InstanceMessage(7))}}, // signer!=From
		sim.Message{From: 2, To: 0, Payload: nil},
	)
	if _, err := tcs[0].Value(7, inbox); !errors.Is(err, ErrNotEnoughShares) {
		t.Fatalf("err = %v: garbage must not count toward the threshold", err)
	}
	// Add a genuinely missing honest share: now it reconstructs.
	inbox = append(inbox, collectRound(tcs, 7, []int{1})...)
	if _, err := tcs[0].Value(7, inbox); err != nil {
		t.Fatalf("coin with 2 honest + 1 more share: %v", err)
	}
}

func TestThresholdCoinInstanceSeparation(t *testing.T) {
	const n = 4
	pk, sks := dealCoin(t, n, 2)
	tcs := thresholdParties(pk, sks, 1<<16)
	all := []int{0, 1, 2, 3}
	v1, err := tcs[0].Value(1, collectRound(tcs, 1, all))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := tcs[0].Value(2, collectRound(tcs, 2, all))
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 {
		t.Errorf("instances 1 and 2 both yielded %d; with range 2^16 a collision is near-impossible", v1)
	}

	other := NewThreshold(pk, sks[0], 1<<16, "otherdomain")
	if string(other.InstanceMessage(1)) == string(tcs[0].InstanceMessage(1)) {
		t.Error("different domains must sign different instance messages")
	}
}

func TestSharePayloadAccounting(t *testing.T) {
	p := SharePayload{}
	if p.SigCount() != 1 {
		t.Errorf("SigCount = %d, want 1", p.SigCount())
	}
	if p.ByteSize() <= threshsig.Size {
		t.Errorf("ByteSize = %d, want > %d", p.ByteSize(), threshsig.Size)
	}
}

func TestQuickReduceRange(t *testing.T) {
	f := func(seed int64, k uint16, r uint8) bool {
		rangeN := int(r)%63 + 1
		o := NewOracle(rangeN, seed)
		v := o.value(int(k))
		return v >= 1 && v <= rangeN
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerOfTwoRangeExactUniform(t *testing.T) {
	// For range 2^k the reduction uses the low bits of the hash; check
	// both halves occur.
	o := NewOracle(2, 5)
	ones, twos := 0, 0
	for k := 0; k < 256; k++ {
		switch o.value(k) {
		case 1:
			ones++
		case 2:
			twos++
		default:
			t.Fatalf("coin out of range")
		}
	}
	if ones == 0 || twos == 0 {
		t.Errorf("degenerate coin: ones=%d twos=%d", ones, twos)
	}
}

// TestThresholdCoinUnpredictableWithoutHonestShare: the adversary's t
// shares alone cannot reconstruct the coin — the threshold is t+1, so
// Coin_k stays hidden until the first honest share is in flight
// (Section 2.2's unpredictability property, enforced structurally).
func TestThresholdCoinUnpredictableWithoutHonestShare(t *testing.T) {
	const n, tcorr = 7, 3
	pk, sks := dealCoin(t, n, tcorr+1)
	tcs := thresholdParties(pk, sks, 16)
	// The adversary holds keys 0..tcorr-1 and signs the instance itself.
	msg := tcs[0].InstanceMessage(4)
	shares := make([]threshsig.Share, 0, tcorr)
	for i := 0; i < tcorr; i++ {
		shares = append(shares, threshsig.SignShare(sks[i], msg))
	}
	if _, err := threshsig.CombineFiltered(pk, msg, shares); !errors.Is(err, threshsig.ErrInsufficientShares) {
		t.Fatalf("t corrupted shares combined into a coin: %v", err)
	}
	// One honest share later, the coin is public — to everyone.
	shares = append(shares, threshsig.SignShare(sks[tcorr], msg))
	sig, err := threshsig.CombineFiltered(pk, msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	v := ValueFromSignature(sig, 16)
	inbox := collectRound(tcs, 4, []int{3, 4, 5, 6})
	honest, err := tcs[6].Value(4, inbox)
	if err != nil {
		t.Fatal(err)
	}
	if honest != v {
		t.Errorf("adversary-computed coin %d != honest coin %d (uniqueness)", v, honest)
	}
}
