// Package metrics provides the measurement primitives the paper says
// benchmarks must report instead of single numbers: log2 latency
// histograms (Figures 3 and 4), throughput time series (Figure 2),
// and histogram timelines (Figure 4's third dimension).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/sim"
)

// NumBuckets is the number of log2 latency buckets. Bucket k counts
// latencies in [2^k, 2^(k+1)) nanoseconds (bucket 0 includes 0 and 1
// ns); bucket 32 therefore starts at ~4.3 s, matching the paper's
// 0–32 X axes.
const NumBuckets = 33

// Histogram is a log2 latency histogram in the style the paper
// adopted from OSDI '06 latency profiling: cheap enough to collect
// always, detailed enough to expose bimodality that a mean erases.
type Histogram struct {
	buckets [NumBuckets]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// Bucket returns the bucket index for a latency in nanoseconds.
func Bucket(ns int64) int {
	if ns < 2 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketLow returns the inclusive lower bound of bucket b in
// nanoseconds.
func BucketLow(b int) int64 {
	if b <= 0 {
		return 0
	}
	return 1 << uint(b)
}

// Record adds one latency observation.
func (h *Histogram) Record(d sim.Time) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[Bucket(ns)]++
	h.count++
	h.sum += ns
	if h.count == 1 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
}

// Count reports total observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean reports the mean latency in nanoseconds (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max reports the maximum observed latency.
func (h *Histogram) Max() int64 { return h.max }

// BucketCount reports the observations in bucket b.
func (h *Histogram) BucketCount(b int) int64 {
	if b < 0 || b >= NumBuckets {
		return 0
	}
	return h.buckets[b]
}

// Percentages returns each bucket's share of observations in percent
// — the paper's Y axis.
func (h *Histogram) Percentages() [NumBuckets]float64 {
	var out [NumBuckets]float64
	if h.count == 0 {
		return out
	}
	for i, c := range h.buckets {
		out[i] = 100 * float64(c) / float64(h.count)
	}
	return out
}

// StrictPercentiles, when set, makes Percentile panic on a p in the
// open interval (0, 1): the API takes percents (0–100), and a caller
// passing a fraction — h.Percentile(0.99) for "p99" — would otherwise
// silently get roughly the 1st percentile. Tests enable it; production
// leaves it off because sub-1 percentiles (p0.5) are legitimate, if
// rare.
var StrictPercentiles bool

// Percentile returns an upper bound for the p-th percentile latency
// (0 < p <= 100) using bucket upper edges — conservative, as a
// latency reporter should be. p is a percent, not a fraction:
// h.Percentile(99) is p99; h.Percentile(0.99) is just below p1 (see
// StrictPercentiles).
func (h *Histogram) Percentile(p float64) int64 {
	if StrictPercentiles && p > 0 && p < 1 {
		panic(fmt.Sprintf("metrics: Percentile(%v) — p is a percent (0-100), not a fraction; did you mean %v?", p, p*100))
	}
	if h.count == 0 || p <= 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	target := int64(math.Ceil(p / 100 * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b, c := range h.buckets {
		cum += c
		if cum >= target {
			hi := int64(1)<<uint(b+1) - 1
			if hi > h.max && h.max > 0 {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Modes returns the bucket indices of local maxima holding at least
// minShare (fraction, e.g. 0.05) of observations, separated by at
// least one lower bucket. Two or more modes is the paper's bimodal
// latency signature.
func (h *Histogram) Modes(minShare float64) []int {
	if h.count == 0 {
		return nil
	}
	threshold := int64(minShare * float64(h.count))
	if threshold < 1 {
		threshold = 1
	}
	var modes []int
	for b := 0; b < NumBuckets; b++ {
		c := h.buckets[b]
		if c < threshold {
			continue
		}
		left := int64(0)
		if b > 0 {
			left = h.buckets[b-1]
		}
		right := int64(0)
		if b < NumBuckets-1 {
			right = h.buckets[b+1]
		}
		if c >= left && c > right || c > left && c >= right {
			// Merge plateau neighbors into one mode.
			if len(modes) > 0 && b-modes[len(modes)-1] == 1 {
				continue
			}
			modes = append(modes, b)
		}
	}
	return modes
}

// FormatLabel renders a bucket's lower bound as a human latency
// ("4us", "17ms"), matching the paper's secondary X-axis labels.
func FormatLabel(b int) string {
	ns := BucketLow(b)
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.0fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.0fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.0fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// String renders a compact multi-line ASCII histogram.
func (h *Histogram) String() string {
	var sb strings.Builder
	pct := h.Percentages()
	fmt.Fprintf(&sb, "histogram: n=%d mean=%.0fns min=%dns max=%dns\n", h.count, h.Mean(), h.min, h.max)
	for b := 0; b < NumBuckets; b++ {
		if h.buckets[b] == 0 {
			continue
		}
		bar := strings.Repeat("#", int(pct[b]/2+0.5))
		fmt.Fprintf(&sb, "  %2d %8s %6.2f%% %s\n", b, FormatLabel(b), pct[b], bar)
	}
	return sb.String()
}
