package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if !almost(s.StdDev, math.Sqrt(2.5), 1e-12) {
		t.Errorf("stddev = %g, want %g", s.StdDev, math.Sqrt(2.5))
	}

	if _, err := Summarize(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("empty: err = %v, want ErrNoData", err)
	}

	one, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if one.StdDev != 0 || one.Mean != 7 {
		t.Errorf("single-point summary = %+v", one)
	}
}

func TestProportion(t *testing.T) {
	p, err := NewProportion(50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(p.P, 0.5, 1e-12) {
		t.Errorf("P = %g", p.P)
	}
	if !p.Contains(0.5) {
		t.Error("interval must contain the point estimate")
	}
	if p.Contains(0.9) || p.Contains(0.1) {
		t.Errorf("interval too wide: [%g,%g]", p.Lo, p.Hi)
	}

	zero, err := NewProportion(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Lo > 1e-15 {
		t.Errorf("zero-successes Lo = %g, want ~0", zero.Lo)
	}
	if zero.Hi <= 0 || zero.Hi > 0.01 {
		t.Errorf("zero-successes Hi = %g, want small positive", zero.Hi)
	}

	all, err := NewProportion(1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if all.Hi != 1 || all.Lo < 0.99 {
		t.Errorf("all-successes interval [%g,%g]", all.Lo, all.Hi)
	}

	if _, err := NewProportion(1, 0); err == nil {
		t.Error("trials=0 must fail")
	}
	if _, err := NewProportion(5, 4); err == nil {
		t.Error("successes>trials must fail")
	}
	if _, err := NewProportion(-1, 4); err == nil {
		t.Error("negative successes must fail")
	}
}

func TestQuickProportionInterval(t *testing.T) {
	f := func(s uint16, extra uint16) bool {
		trials := int(s)%1000 + 1
		succ := int(extra) % (trials + 1)
		p, err := NewProportion(succ, trials)
		if err != nil {
			return false
		}
		return p.Lo >= 0 && p.Hi <= 1 && p.Lo <= p.P+1e-9 && p.P <= p.Hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitPower(t *testing.T) {
	// Exact square law: y = 3 n^2.
	xs := []float64{4, 8, 16, 32, 64}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	fit, err := FitPower(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Exponent, 2, 1e-9) {
		t.Errorf("exponent = %g, want 2", fit.Exponent)
	}
	if !almost(fit.Coeff, 3, 1e-6) {
		t.Errorf("coeff = %g, want 3", fit.Coeff)
	}
	if fit.R2 < 0.999999 {
		t.Errorf("R2 = %g", fit.R2)
	}
}

func TestFitPowerCube(t *testing.T) {
	xs := []float64{4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.5 * x * x * x
	}
	fit, err := FitPower(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Exponent, 3, 1e-9) {
		t.Errorf("exponent = %g, want 3", fit.Exponent)
	}
}

func TestFitPowerErrors(t *testing.T) {
	if _, err := FitPower([]float64{1}, []float64{1}); err == nil {
		t.Error("single point must fail")
	}
	if _, err := FitPower([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := FitPower([]float64{1, -2}, []float64{1, 1}); err == nil {
		t.Error("negative x must fail")
	}
	if _, err := FitPower([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("constant x must fail")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	tests := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", tt.q, got, tt.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Error("Quantile mutated its input")
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrNoData) {
		t.Error("empty input must fail with ErrNoData")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("q>1 must fail")
	}
}
