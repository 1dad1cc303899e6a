// Package stats implements the statistical machinery a rigorous
// benchmark harness needs: descriptive statistics, Student-t
// confidence intervals, two-sample significance tests, steady-state
// (warm-up) detection, change-point detection, and bimodality
// measures.
//
// The paper's complaint is not that researchers report no statistics
// — means and standard deviations appear everywhere — but that those
// statistics are meaningless when the underlying distribution is
// non-stationary (Figure 2) or multi-modal (Figures 3–4). The tests
// in this package exist to *detect those conditions and refuse the
// single number*, not merely to decorate it.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// RelStdDev returns the standard deviation as a fraction of the mean
// — the paper's "relative standard deviation" (Figure 1's right
// axis, reported there in percent). Returns 0 when the mean is 0.
func RelStdDev(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / math.Abs(m)
}

// Min returns the minimum (0 for empty).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum (0 for empty).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// StrictPercentiles, when set, makes Percentile panic on a p in the
// open interval (0, 1): the API takes percents (0–100), and a caller
// passing a fraction — Percentile(xs, 0.99) for "p99" — would
// otherwise silently get roughly the 1st percentile. Tests enable it;
// production leaves it off because sub-1 percentiles (p0.5) are
// legitimate, if rare.
var StrictPercentiles bool

// Percentile returns the p-th percentile (0<=p<=100) using linear
// interpolation between order statistics. p is a percent, not a
// fraction: Percentile(xs, 99) is p99; Percentile(xs, 0.99) is just
// below p1 (see StrictPercentiles).
func Percentile(xs []float64, p float64) float64 {
	if StrictPercentiles && p > 0 && p < 1 {
		panic(fmt.Sprintf("stats: Percentile(%v) — p is a percent (0-100), not a fraction; did you mean %v?", p, p*100))
	}
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary is the descriptive statistics bundle a multi-run experiment
// reports for one configuration.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	RSD    float64 // relative standard deviation (fraction of mean)
	Min    float64
	Max    float64
	Median float64
	// CI95Lo and CI95Hi bound the mean with 95% confidence
	// (Student-t, n-1 degrees of freedom).
	CI95Lo float64
	CI95Hi float64
}

// Summarize computes a Summary of the sample.
func Summarize(xs []float64) Summary {
	s := Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		RSD:    RelStdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		Median: Median(xs),
	}
	if s.N >= 2 {
		half := TQuantile(0.975, float64(s.N-1)) * s.StdDev / math.Sqrt(float64(s.N))
		s.CI95Lo = s.Mean - half
		s.CI95Hi = s.Mean + half
	} else {
		s.CI95Lo, s.CI95Hi = s.Mean, s.Mean
	}
	return s
}

// LinearRegression fits y = intercept + slope*x by least squares and
// returns the fit along with r².
func LinearRegression(x, y []float64) (slope, intercept, r2 float64) {
	n := len(x)
	if n != len(y) || n < 2 {
		return 0, Mean(y), 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, my, 0
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return slope, intercept, r2
}
