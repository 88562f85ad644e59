// Package stats provides the summary statistics, confidence intervals,
// and scaling-law fits used to turn raw Monte Carlo trial data into the
// experiment tables that cobractl experiments prints.
package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // unbiased sample variance
	Std    float64
	Min    float64
	Max    float64
	Median float64
	Q25    float64
	Q75    float64
}

// Summarize computes a Summary of xs. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	// Welford's algorithm for numerically stable mean/variance.
	mean, m2 := 0.0, 0.0
	for i, x := range xs {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = mean
	if len(xs) > 1 {
		s.Var = m2 / float64(len(xs)-1)
	}
	s.Std = math.Sqrt(s.Var)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.Q25 = Quantile(sorted, 0.25)
	s.Q75 = Quantile(sorted, 0.75)
	return s
}

// Quantile returns the q-th quantile (0 <= q <= 1) of a sorted sample by
// linear interpolation. It panics if the sample is empty or unsorted use
// is the caller's responsibility.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MeanCI returns the mean of xs and the half-width of its 95% confidence
// interval under the normal approximation (1.96 * stderr).
func MeanCI(xs []float64) (mean, halfWidth float64) {
	s := Summarize(xs)
	if s.N < 2 {
		return s.Mean, math.Inf(1)
	}
	return s.Mean, 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// BootstrapCI returns a (lo, hi) percentile bootstrap confidence interval
// for the mean at the given confidence level (e.g. 0.95), using resamples
// resampling rounds and the given seed.
func BootstrapCI(xs []float64, confidence float64, resamples int, seed uint64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: BootstrapCI of empty sample")
	}
	if confidence <= 0 || confidence >= 1 {
		panic("stats: confidence must be in (0,1)")
	}
	r := rng.New(seed)
	means := make([]float64, resamples)
	for b := 0; b < resamples; b++ {
		sum := 0.0
		for i := 0; i < len(xs); i++ {
			sum += xs[r.Intn(len(xs))]
		}
		means[b] = sum / float64(len(xs))
	}
	sort.Float64s(means)
	alpha := (1 - confidence) / 2
	return Quantile(means, alpha), Quantile(means, 1-alpha)
}

// LinearFit holds the result of an ordinary-least-squares line fit
// y = Slope*x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine fits y = a*x + b by OLS. It panics if fewer than 2 points or if
// all x are identical.
func FitLine(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) {
		panic("stats: FitLine length mismatch")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		panic("stats: FitLine needs >= 2 points")
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("stats: FitLine with constant x")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = sxy * sxy / (sxx * syy)
	}
	return fit
}

// PowerLawFit holds the result of fitting y = C * x^Exponent by OLS in
// log-log space. Exponent is the scaling exponent the grid and
// hitting-time experiments report.
type PowerLawFit struct {
	Exponent float64
	Constant float64
	R2       float64
}

// FitPowerLaw fits y = C*x^e through log-log OLS. All xs and ys must be
// positive.
func FitPowerLaw(xs, ys []float64) PowerLawFit {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic(fmt.Sprintf("stats: FitPowerLaw needs positive data, got (%v, %v)", xs[i], ys[i]))
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	lf := FitLine(lx, ly)
	return PowerLawFit{Exponent: lf.Slope, Constant: math.Exp(lf.Intercept), R2: lf.R2}
}

// Mean returns the arithmetic mean of xs; it panics on an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty sample")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MaxFloat returns the maximum of xs; it panics on an empty sample.
func MaxFloat(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: MaxFloat of empty sample")
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	return max
}

// Online accumulates a running mean and variance via Welford's algorithm
// without storing the sample. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 if no observations).
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased running variance (0 if fewer than 2
// observations).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the running standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// Min returns the smallest observation (0 if none).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation (0 if none).
func (o *Online) Max() float64 { return o.max }

// Histogram builds a fixed-width histogram of xs over [lo, hi) with the
// given number of bins; values outside the range are clamped into the
// first/last bin. It panics if bins < 1 or hi <= lo.
func Histogram(xs []float64, lo, hi float64, bins int) []int {
	if bins < 1 || hi <= lo {
		panic("stats: Histogram parameter error")
	}
	counts := make([]int, bins)
	width := (hi - lo) / float64(bins)
	for _, x := range xs {
		b := int((x - lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return counts
}

// EmpiricalCDF returns, for a sorted sample, the fraction of observations
// <= x.
func EmpiricalCDF(sorted []float64, x float64) float64 {
	if len(sorted) == 0 {
		panic("stats: EmpiricalCDF of empty sample")
	}
	// Binary search for the first index with sorted[i] > x.
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return float64(lo) / float64(len(sorted))
}

// StochasticallyDominates reports whether sample a stochastically
// dominates sample b at every checked quantile: for each q in a fine
// grid, Quantile(a, q) >= Quantile(b, q) - slack. This is the empirical
// test of Lemma 10 (Walt cover times dominate cobra cover times). slack
// absorbs Monte Carlo noise.
func StochasticallyDominates(a, b []float64, slack float64) bool {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	for q := 0.05; q <= 0.951; q += 0.05 {
		if Quantile(sa, q) < Quantile(sb, q)-slack {
			return false
		}
	}
	return true
}
