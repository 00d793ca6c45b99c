package proxcensus_test

import (
	"testing"

	"proxcensus"
)

func TestProxFamilySlots(t *testing.T) {
	tests := []struct {
		family  proxcensus.ProxFamily
		rounds  int
		want    int
		wantErr bool
	}{
		{proxcensus.ProxExpand, 3, 9, false},
		{proxcensus.ProxExpand, 0, 2, false},
		{proxcensus.ProxExpand, 62, 1<<62 + 1, false},
		{proxcensus.ProxExpand, 63, 0, true},
		{proxcensus.ProxLinear, 3, 5, false},
		{proxcensus.ProxLinear, 1, 0, true},
		{proxcensus.ProxQuadratic, 6, 15, false},
		{proxcensus.ProxQuadratic, 2, 0, true},
		{proxcensus.ProxFamily(99), 3, 0, true},
	}
	for _, tt := range tests {
		got, err := tt.family.Slots(tt.rounds)
		if (err != nil) != tt.wantErr {
			t.Errorf("%s.Slots(%d) err = %v, wantErr %v", tt.family, tt.rounds, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("%s.Slots(%d) = %d, want %d", tt.family, tt.rounds, got, tt.want)
		}
	}
}

func TestRunProxcensusFamilies(t *testing.T) {
	for _, tc := range []struct {
		family proxcensus.ProxFamily
		n, t   int
		rounds int
	}{
		{proxcensus.ProxExpand, 7, 2, 3},
		{proxcensus.ProxLinear, 5, 2, 3},
		{proxcensus.ProxQuadratic, 5, 2, 4},
	} {
		t.Run(tc.family.String(), func(t *testing.T) {
			setup, err := proxcensus.NewSetup(tc.n, tc.t, proxcensus.CoinIdeal, 4)
			if err != nil {
				t.Fatal(err)
			}
			inputs := make([]int, tc.n)
			for i := range inputs {
				inputs[i] = 1
			}
			exec, err := proxcensus.RunProxcensus(setup, tc.family, tc.rounds, inputs, proxcensus.Crash(0), 2)
			if err != nil {
				t.Fatal(err)
			}
			results := exec.HonestResults()
			if err := proxcensus.CheckProxValidity(exec.Slots, 1, results); err != nil {
				t.Error(err)
			}
			if err := proxcensus.CheckProxConsistency(exec.Slots, results); err != nil {
				t.Error(err)
			}
			g := proxcensus.MaxGrade(exec.Slots)
			for _, r := range results {
				if r.Grade != g {
					t.Errorf("grade %d, want max %d", r.Grade, g)
				}
			}
		})
	}
}

func TestRunProxcensusValidation(t *testing.T) {
	setup, err := proxcensus.NewSetup(5, 2, proxcensus.CoinIdeal, 4)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []int{0, 0, 0, 0, 0}
	if _, err := proxcensus.RunProxcensus(setup, proxcensus.ProxExpand, 3, inputs, nil, 1); err == nil {
		t.Error("expand with t >= n/3 must fail")
	}
	if _, err := proxcensus.RunProxcensus(setup, proxcensus.ProxLinear, 3, inputs[:3], nil, 1); err == nil {
		t.Error("short inputs must fail")
	}
	if _, err := proxcensus.RunProxcensus(nil, proxcensus.ProxLinear, 3, inputs, nil, 1); err == nil {
		t.Error("nil setup must fail")
	}
}

func TestFacadeDistributedSetup(t *testing.T) {
	blobs := [][]byte{{1}, {2}, {3}, {4}, {5}}
	setup, err := proxcensus.NewSetupDistributed(5, 2, proxcensus.CoinThreshold, blobs)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := proxcensus.NewHalf(setup, 6, []int{1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := proto.Run(proxcensus.Passive(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := proxcensus.CheckValidity(1, proxcensus.Decisions(res)); err != nil {
		t.Error(err)
	}
}

func TestRunProxcast(t *testing.T) {
	exec, err := proxcensus.RunProxcast(proxcensus.ProxcastRun{
		N: 6, T: 2, Slots: 9, Dealer: 1, Input: 7, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := proxcensus.MaxGrade(9)
	for p, r := range exec.Results {
		if r.Value != 7 || r.Grade != g {
			t.Errorf("party %d: %+v, want (7,%d)", p, r, g)
		}
	}
	if exec.Metrics.Rounds != 8 {
		t.Errorf("rounds = %d, want 8", exec.Metrics.Rounds)
	}
}

func TestRunProxcastValidation(t *testing.T) {
	if _, err := proxcensus.RunProxcast(proxcensus.ProxcastRun{N: 2, T: 0, Slots: 1}); err == nil {
		t.Error("slots=1 must fail")
	}
	if _, err := proxcensus.RunProxcast(proxcensus.ProxcastRun{N: 3, T: 1, Slots: 5, Dealer: 9}); err == nil {
		t.Error("out-of-range dealer must fail")
	}
}
