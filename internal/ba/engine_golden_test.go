package ba_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"proxcensus/internal/adversary"
	"proxcensus/internal/ba"
	"proxcensus/internal/sim"
)

// engineFamily builds a fresh protocol + adversary pair for one seed.
type engineFamily struct {
	name  string
	build func(t *testing.T, seed int64) (*ba.Protocol, sim.Adversary)
	// want holds the pinned execution hash for seeds 1..5.
	want [5]string
}

func engineFamilies() []engineFamily {
	return []engineFamily{
		{"oneshot", func(t *testing.T, seed int64) (*ba.Protocol, sim.Adversary) {
			const n, tc, kappa = 7, 2, 3
			setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, seed*997+13)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := ba.NewOneShot(setup, kappa, splitInputs(n, tc))
			if err != nil {
				t.Fatal(err)
			}
			return proto, &adversary.ExpandAdaptiveSplit{N: n, T: tc, Period: proto.Rounds}
		}, [5]string{
			"443da9b9d754278cb9b0f3c13e434979c23152d0e3ab65bc772dddd67179bd16",
			"d815fc575c7943e6d4d528e88ef1fcc2d07d7ddd31c2537b17fd72da825bfafb",
			"443da9b9d754278cb9b0f3c13e434979c23152d0e3ab65bc772dddd67179bd16",
			"d815fc575c7943e6d4d528e88ef1fcc2d07d7ddd31c2537b17fd72da825bfafb",
			"443da9b9d754278cb9b0f3c13e434979c23152d0e3ab65bc772dddd67179bd16",
		}},
		{"fm", func(t *testing.T, seed int64) (*ba.Protocol, sim.Adversary) {
			const n, tc, kappa = 4, 1, 4
			setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, seed*991+7)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := ba.NewFM(setup, kappa, splitInputs(n, tc))
			if err != nil {
				t.Fatal(err)
			}
			return proto, &adversary.ExpandAdaptiveSplit{N: n, T: tc, Period: 2}
		}, [5]string{
			"f917b5b1b8ce8661fefbcf704b8a5cb5f8207dc61450bdd3d927bd039a89e533",
			"f6575c0df7c2d068117eb916f1f6d8d94b1c70ee346b2107012ea61c71e8487f",
			"f917b5b1b8ce8661fefbcf704b8a5cb5f8207dc61450bdd3d927bd039a89e533",
			"f6575c0df7c2d068117eb916f1f6d8d94b1c70ee346b2107012ea61c71e8487f",
			"f917b5b1b8ce8661fefbcf704b8a5cb5f8207dc61450bdd3d927bd039a89e533",
		}},
		{"half", func(t *testing.T, seed int64) (*ba.Protocol, sim.Adversary) {
			const n, tc, kappa = 5, 2, 4
			setup, err := ba.NewSetup(n, tc, ba.CoinThreshold, seed*983+11)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := ba.NewHalf(setup, kappa, splitInputs(n, tc))
			if err != nil {
				t.Fatal(err)
			}
			return proto, &adversary.LinearAdaptiveSplit{N: n, T: tc, Period: 3, Keys: setup.ProxSKs[:tc]}
		}, [5]string{
			"2787f97b4c6e9e301072de9f88d52b724cbd63460f71e70e55f15c99a4e7d3c6",
			"e8bde66f4b605b8bc141d0bb57b937c48e3b150f8a46b1432bf091255853eae3",
			"a3a0f666794340d5c82e7219d7e051a9dc4751a39edc1d7326da50d57fc9a069",
			"5f9095fdec6fb3518468659898121aabcd932a157877761fbe199a436217015a",
			"b5574873e0cef06ab317d1abe4856dd02e2207566abebcc9edcc19788099addb",
		}},
		{"mv", func(t *testing.T, seed int64) (*ba.Protocol, sim.Adversary) {
			const n, tc, kappa = 5, 2, 4
			setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, seed*977+5)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := ba.NewMV(setup, kappa, splitInputs(n, tc))
			if err != nil {
				t.Fatal(err)
			}
			return proto, &adversary.LinearAdaptiveSplit{N: n, T: tc, Period: 2, Keys: setup.ProxSKs[:tc]}
		}, [5]string{
			"a9b9a09f52e1cc93c1dd05e5d96eb8fa60d4e1e01843feaa842fbd6cb23a1d25",
			"60e60511164627cc34bae3dc06c57fab5353d0c69763909679bf8a2bbb20b9ae",
			"e3634cccb95ba0dff9d5bf4046c803b379cea3fe53b95ce0ac9738a372750264",
			"bd20d1cc38e27f51c0225070da3fd428bec440a38055df16372431a665bba7c0",
			"aff77a1db3b12752366cff67a6809ce40f4fc4a2f0065f36251b2b67d74ab542",
		}},
		{"lasvegas", func(t *testing.T, seed int64) (*ba.Protocol, sim.Adversary) {
			const n, tc = 7, 2
			setup, err := ba.NewSetup(n, tc, ba.CoinIdeal, seed*3+1)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := ba.NewLasVegas(setup, 30, splitInputs(n, tc))
			if err != nil {
				t.Fatal(err)
			}
			return proto, &adversary.LateCrash{Victims: adversary.FirstT(tc), When: 2}
		}, [5]string{
			"d0fc117b54bb7183a50ef646ed7057ca504dec05486c1329fe298e35737386cc",
			"d0fc117b54bb7183a50ef646ed7057ca504dec05486c1329fe298e35737386cc",
			"47086899fb85f15f1ada52f69e8b114107f8873904915bbd730cec54e635d85e",
			"47086899fb85f15f1ada52f69e8b114107f8873904915bbd730cec54e635d85e",
			"47086899fb85f15f1ada52f69e8b114107f8873904915bbd730cec54e635d85e",
		}},
	}
}

// TestEngineGoldenTranscripts pins every protocol family in the repo,
// run under an adaptive (or late-crash) adversary at seeds 1..5, to the
// execution hash recorded while the engine still had a parallel mode
// that was checked byte-identical to the sequential one: the message
// trace, per-round metrics, honest outputs and corrupted set. A change
// that moves a hash changed an execution, not just its speed.
func TestEngineGoldenTranscripts(t *testing.T) {
	for _, fam := range engineFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			for i, want := range fam.want {
				seed := int64(i + 1)
				proto, adv := fam.build(t, seed)
				rec := &sim.Recorder{}
				res, err := proto.RunTraced(adv, seed*7+1, rec)
				if err != nil {
					t.Fatalf("seed=%d: %v", seed, err)
				}
				if got := executionHash(rec, res); got != want {
					t.Errorf("seed=%d: execution hash = %s, want %s", seed, got, want)
				}
			}
		})
	}
}

// executionHash is the sha256 of everything observable about one
// execution: the trace fingerprint, the metrics, the honest outputs in
// party order and the corrupted set.
func executionHash(rec *sim.Recorder, res *sim.Result) string {
	h := sha256.New()
	h.Write([]byte(rec.Fingerprint()))
	fmt.Fprintf(h, "|%+v|%v|%v", res.Metrics, res.HonestOutputs(), res.Corrupted)
	return hex.EncodeToString(h.Sum(nil))
}
