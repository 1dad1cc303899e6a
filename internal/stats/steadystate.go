package stats

import "math"

// This file holds the time-dimension diagnostics: warm-up truncation
// (MSER-5), change-point detection, and stationarity checks. They
// answer the paper's Figure 2 question — "what should the careful
// researcher do?" — mechanically: find the transient, report it as a
// region, and only summarize data from the stationary tail (if one
// exists).

// MSER5 returns the truncation index (into the original series) that
// minimizes the marginal standard error with batch size 5 — the
// standard simulation-output rule for deleting the warm-up transient.
// It returns len(xs) when no prefix yields a usable tail (no steady
// state detected).
func MSER5(xs []float64) int {
	const batch = 5
	nb := len(xs) / batch
	if nb < 2 {
		return 0
	}
	// Batch means.
	means := make([]float64, nb)
	for i := 0; i < nb; i++ {
		var s float64
		for j := 0; j < batch; j++ {
			s += xs[i*batch+j]
		}
		means[i] = s / batch
	}
	bestIdx := 0
	bestVal := math.Inf(1)
	// Standard MSER practice: do not consider truncating more than
	// half the series.
	for d := 0; d <= nb/2; d++ {
		tail := means[d:]
		n := float64(len(tail))
		if n < 2 {
			break
		}
		m := Mean(tail)
		var ss float64
		for _, v := range tail {
			ss += (v - m) * (v - m)
		}
		val := ss / (n * n)
		if val < bestVal {
			bestVal = val
			bestIdx = d
		}
	}
	return bestIdx * batch
}

// ChangePoint locates the index that best splits xs into two segments
// with different means, returning the index and the two-sided Welch
// p-value of the difference. Index 0 with p = 1 means no split.
func ChangePoint(xs []float64, minSeg int) (int, float64) {
	n := len(xs)
	if minSeg < 2 {
		minSeg = 2
	}
	if n < 2*minSeg {
		return 0, 1
	}
	bestIdx, bestP := 0, 1.0
	bestT := 0.0
	for i := minSeg; i <= n-minSeg; i++ {
		r := WelchTTest(xs[:i], xs[i:])
		if math.Abs(r.T) > bestT {
			bestT = math.Abs(r.T)
			bestIdx = i
			bestP = r.P
		}
	}
	return bestIdx, bestP
}

// StationaryTail reports whether the tail of xs after MSER-5
// truncation looks stationary: no further significant change point
// and a small trend relative to the mean. It returns the truncation
// index and the verdict; callers that get ok == false should publish
// the whole curve, not a number.
func StationaryTail(xs []float64) (trunc int, ok bool) {
	trunc = MSER5(xs)
	tail := xs[trunc:]
	if len(tail) < 10 {
		return trunc, false
	}
	if _, p := ChangePoint(tail, 5); p < 0.001 {
		// A decisive level shift remains after truncation.
		return trunc, false
	}
	// Trend check: fitted drift across the tail must stay under 10%
	// of the mean level.
	xIdx := make([]float64, len(tail))
	for i := range xIdx {
		xIdx[i] = float64(i)
	}
	slope, _, _ := LinearRegression(xIdx, tail)
	m := Mean(tail)
	if m != 0 && math.Abs(slope*float64(len(tail)))/math.Abs(m) > 0.10 {
		return trunc, false
	}
	return trunc, true
}

// TransitionRegion scans a parameter sweep (x sorted ascending, one
// summary per x) and returns the index range [lo, hi] whose relative
// standard deviation exceeds fragileRSD, plus the largest adjacent-
// point throughput ratio found inside it. This is the Figure 1
// fragility detector: the zone where "just a tiny variation in the
// amount of available cache space can produce a large variation in
// performance".
func TransitionRegion(summaries []Summary, fragileRSD float64) (lo, hi int, maxRatio float64, found bool) {
	lo, hi = -1, -1
	for i, s := range summaries {
		if s.RSD > fragileRSD {
			if lo == -1 {
				lo = i
			}
			hi = i
		}
	}
	if lo == -1 {
		return 0, 0, 0, false
	}
	maxRatio = 1
	for i := 0; i+1 < len(summaries); i++ {
		a, b := summaries[i].Mean, summaries[i+1].Mean
		if a == 0 || b == 0 {
			continue
		}
		r := a / b
		if r < 1 {
			r = 1 / r
		}
		if r > maxRatio {
			maxRatio = r
		}
	}
	return lo, hi, maxRatio, true
}
