// Package stats provides the small statistical toolkit used by the
// experiment harness: summary statistics, binomial confidence intervals
// for error-rate estimation, and log-log regression for empirical
// complexity-exponent estimation.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoData indicates an operation on an empty sample.
var ErrNoData = errors.New("stats: no data")

// Summary holds the usual moments of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoData
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s, nil
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.3g min=%.4g max=%.4g", s.N, s.Mean, s.StdDev, s.Min, s.Max)
}

// Proportion is an estimated binomial proportion with a Wilson score
// confidence interval.
type Proportion struct {
	Successes int
	Trials    int
	// P is the point estimate Successes/Trials.
	P float64
	// Lo, Hi bound the 95% Wilson score interval.
	Lo, Hi float64
}

// NewProportion estimates a proportion with its 95% Wilson interval.
// The Wilson interval behaves sensibly even at 0 or Trials successes,
// which matters when estimating error rates near 2^-κ.
func NewProportion(successes, trials int) (Proportion, error) {
	if trials <= 0 {
		return Proportion{}, fmt.Errorf("%w: trials=%d", ErrNoData, trials)
	}
	if successes < 0 || successes > trials {
		return Proportion{}, fmt.Errorf("stats: successes=%d out of [0,%d]", successes, trials)
	}
	const z = 1.959964 // 97.5th normal percentile
	n := float64(trials)
	p := float64(successes) / n
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / denom
	return Proportion{
		Successes: successes,
		Trials:    trials,
		P:         p,
		Lo:        math.Max(0, center-half),
		Hi:        math.Min(1, center+half),
	}, nil
}

// Contains reports whether q lies in the confidence interval.
func (p Proportion) Contains(q float64) bool { return q >= p.Lo && q <= p.Hi }

// String renders the estimate as "p [lo, hi]".
func (p Proportion) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d/%d)", p.P, p.Lo, p.Hi, p.Successes, p.Trials)
}

// PowerFit is the result of a log-log linear regression y ≈ c·x^k.
type PowerFit struct {
	// Exponent is the fitted k.
	Exponent float64
	// Coeff is the fitted c.
	Coeff float64
	// R2 is the coefficient of determination in log space.
	R2 float64
}

// FitPower fits y = c·x^k by least squares on (log x, log y). It is the
// tool behind the communication-complexity scaling experiments: a
// protocol with O(n^2) traffic fits k ≈ 2. All inputs must be positive.
func FitPower(xs, ys []float64) (PowerFit, error) {
	if len(xs) != len(ys) {
		return PowerFit{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return PowerFit{}, fmt.Errorf("%w: need at least 2 points", ErrNoData)
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return PowerFit{}, fmt.Errorf("stats: non-positive point (%g, %g)", xs[i], ys[i])
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	n := float64(len(lx))
	var sx, sy, sxx, sxy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return PowerFit{}, errors.New("stats: degenerate x values")
	}
	k := (n*sxy - sx*sy) / denom
	b := (sy - k*sx) / n

	// R^2 in log space.
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range lx {
		pred := k*lx[i] + b
		ssTot += (ly[i] - meanY) * (ly[i] - meanY)
		ssRes += (ly[i] - pred) * (ly[i] - pred)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return PowerFit{Exponent: k, Coeff: math.Exp(b), R2: r2}, nil
}

// String renders the fit like "y ~ 3.1 * x^2.02 (R2=0.999)".
func (f PowerFit) String() string {
	return fmt.Sprintf("y ~ %.3g * x^%.3f (R2=%.4f)", f.Coeff, f.Exponent, f.R2)
}

// Quantile returns the q-quantile (0 <= q <= 1) of a sample by sorting a
// copy (the input is not modified).
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %g out of [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1], nil
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac, nil
}
