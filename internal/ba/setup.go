package ba

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"proxcensus/internal/coin"
	"proxcensus/internal/crypto/threshsig"
	"proxcensus/internal/quorum"
)

// CoinMode selects the coin-flip instantiation of an execution.
type CoinMode int

const (
	// CoinIdeal uses the ideal 1-round multivalued coin the paper's
	// round-complexity comparisons assume (Section 3.2).
	CoinIdeal CoinMode = iota + 1
	// CoinThreshold uses the threshold-signature coin in the random-
	// oracle model (Section 2.2): one broadcast of signature shares,
	// reconstruction threshold t+1.
	CoinThreshold
)

// String implements fmt.Stringer.
func (m CoinMode) String() string {
	switch m {
	case CoinIdeal:
		return "ideal"
	case CoinThreshold:
		return "threshold"
	default:
		return fmt.Sprintf("CoinMode(%d)", int(m))
	}
}

// Setup bundles the trusted-setup artifacts of one BA execution: the
// (n-t)-of-n threshold scheme used by the t < n/2 Proxcensus protocols
// and the (t+1)-of-n scheme used by the coin (Section 2.2). The paper
// assumes all parties start after this setup phase has completed.
type Setup struct {
	// N is the number of parties, T the corruption budget.
	N, T int
	// Mode selects the coin instantiation.
	Mode CoinMode
	// ProxPK/ProxSKs form the (n-t)-of-n scheme for Proxcensus.
	ProxPK  *threshsig.PublicKey
	ProxSKs []*threshsig.SecretKey
	// CoinPK/CoinSKs form the (t+1)-of-n scheme for the coin.
	CoinPK  *threshsig.PublicKey
	CoinSKs []*threshsig.SecretKey
	// Seed derives all dealer randomness and the ideal coin sequence.
	Seed int64
}

// NewSetup runs the trusted dealer for n parties tolerating t
// corruptions. All randomness is derived from seed, so executions are
// reproducible.
func NewSetup(n, t int, mode CoinMode, seed int64) (*Setup, error) {
	if n <= 0 || t < 0 || t >= n {
		return nil, fmt.Errorf("ba: invalid setup n=%d t=%d", n, t)
	}
	proxPK, proxSKs, err := threshsig.Deal(n, quorum.Size(n, t), deriveSeed(seed, "prox"))
	if err != nil {
		return nil, fmt.Errorf("ba: dealing prox scheme: %w", err)
	}
	coinPK, coinSKs, err := threshsig.Deal(n, t+1, deriveSeed(seed, "coin"))
	if err != nil {
		return nil, fmt.Errorf("ba: dealing coin scheme: %w", err)
	}
	return &Setup{
		N: n, T: t, Mode: mode,
		ProxPK: proxPK, ProxSKs: proxSKs,
		CoinPK: coinPK, CoinSKs: coinSKs,
		Seed: seed,
	}, nil
}

// NewSetupDistributed runs the setup without a trusted dealer: every
// party contributes an entropy blob over the (assumed) broadcast
// channel via the commit-then-open ceremony, and both schemes — the
// (n-t)-of-n Proxcensus scheme and the (t+1)-of-n coin scheme — derive
// from the agreed transcript. blobs[i] is party i's contribution; a nil
// entry models a party that abstained (at least one contribution is
// required). The ideal-coin sequence is seeded from the same
// transcript.
func NewSetupDistributed(n, t int, mode CoinMode, blobs [][]byte) (*Setup, error) {
	if n <= 0 || t < 0 || t >= n {
		return nil, fmt.Errorf("ba: invalid setup n=%d t=%d", n, t)
	}
	if len(blobs) != n {
		return nil, fmt.Errorf("ba: %d contributions for n=%d", len(blobs), n)
	}
	runCeremony := func(threshold int, domain string) (*threshsig.PublicKey, []*threshsig.SecretKey, error) {
		cer, err := threshsig.NewCeremony(n, threshold)
		if err != nil {
			return nil, nil, err
		}
		for p, blob := range blobs {
			if blob == nil {
				continue
			}
			tagged := append([]byte(domain), blob...)
			if err := cer.Commit(p, threshsig.Commitment(tagged)); err != nil {
				return nil, nil, err
			}
		}
		for p, blob := range blobs {
			if blob == nil {
				continue
			}
			tagged := append([]byte(domain), blob...)
			if err := cer.Open(p, tagged); err != nil {
				return nil, nil, err
			}
		}
		return cer.Finish()
	}
	proxPK, proxSKs, err := runCeremony(quorum.Size(n, t), "prox")
	if err != nil {
		return nil, fmt.Errorf("ba: prox ceremony: %w", err)
	}
	coinPK, coinSKs, err := runCeremony(t+1, "coin")
	if err != nil {
		return nil, fmt.Errorf("ba: coin ceremony: %w", err)
	}
	// Derive the ideal-coin seed from the transcript too, so the whole
	// setup is dealerless.
	h := sha256.New()
	h.Write([]byte("ba/setup/coin-seed"))
	for _, blob := range blobs {
		h.Write(blob)
	}
	sum := h.Sum(nil)
	seed := int64(binary.BigEndian.Uint64(sum[:8]) >> 1)
	return &Setup{
		N: n, T: t, Mode: mode,
		ProxPK: proxPK, ProxSKs: proxSKs,
		CoinPK: coinPK, CoinSKs: coinSKs,
		Seed: seed,
	}, nil
}

// CoinComponents builds one coin participant per party over the range
// [1, rangeN]; in ideal mode they share one Oracle. domain separates
// protocol executions sharing a setup.
func (s *Setup) CoinComponents(rangeN int, domain string) []coin.Component {
	comps := make([]coin.Component, s.N)
	if s.Mode == CoinThreshold {
		for i := range comps {
			comps[i] = coin.NewThreshold(s.CoinPK, s.CoinSKs[i], rangeN, domain)
		}
		return comps
	}
	oracle := coin.NewOracle(rangeN, s.Seed^int64(len(domain))<<32+hashDomain(domain))
	for i := range comps {
		comps[i] = coin.NewIdealComponent(oracle)
	}
	return comps
}

// deriveSeed expands the scalar seed into a labelled 32-byte dealer
// seed.
func deriveSeed(seed int64, label string) [threshsig.Size]byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(seed))
	return sha256.Sum256(append(buf[:], label...))
}

// hashDomain folds a domain tag into an int64 for oracle-seed
// separation.
func hashDomain(domain string) int64 {
	h := sha256.Sum256([]byte(domain))
	return int64(binary.BigEndian.Uint64(h[:8]) >> 1)
}
