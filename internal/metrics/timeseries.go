package metrics

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// TimeSeries accumulates per-interval operation counts under virtual
// time, producing the throughput-versus-time curves of Figure 2. The
// paper's argument is that *only the entire curve* fairly
// characterizes a system during cache warm-up; this type is how the
// harness keeps the whole curve.
type TimeSeries struct {
	interval sim.Time
	offset   sim.Time // virtual time of bucket 0's start
	counts   []int64
	values   []float64 // optional value accumulation (e.g. bytes)
}

// NewTimeSeriesOffset returns a series whose bucket 0 starts at the
// given virtual time — experiments rarely begin at t=0 because setup
// (file preallocation) consumes virtual time first.
func NewTimeSeriesOffset(interval, start sim.Time) *TimeSeries {
	if interval <= 0 {
		panic("metrics: non-positive time series interval")
	}
	return &TimeSeries{interval: interval, offset: start}
}

// Interval reports the bucket width.
func (ts *TimeSeries) Interval() sim.Time { return ts.interval }

// Offset reports the virtual time of bucket 0's start.
func (ts *TimeSeries) Offset() sim.Time { return ts.offset }

// Merge adds another series' buckets in, panicking on mismatched
// interval or offset — merging misaligned curves would silently shear
// time. Sharded runs merge per-shard series recorded against one
// common origin.
func (ts *TimeSeries) Merge(other *TimeSeries) {
	if other == nil {
		return
	}
	if other.interval != ts.interval || other.offset != ts.offset {
		panic("metrics: merging misaligned time series")
	}
	for len(ts.counts) < len(other.counts) {
		ts.counts = append(ts.counts, 0)
		ts.values = append(ts.values, 0)
	}
	for i := range other.counts {
		ts.counts[i] += other.counts[i]
		ts.values[i] += other.values[i]
	}
}

// Add records one event (weight value) at virtual time t.
func (ts *TimeSeries) Add(t sim.Time, value float64) {
	t -= ts.offset
	if t < 0 {
		t = 0
	}
	idx := int(t / ts.interval)
	for len(ts.counts) <= idx {
		ts.counts = append(ts.counts, 0)
		ts.values = append(ts.values, 0)
	}
	ts.counts[idx]++
	ts.values[idx] += value
}

// Buckets reports how many intervals have been touched.
func (ts *TimeSeries) Buckets() int { return len(ts.counts) }

// Count reports events in bucket i.
func (ts *TimeSeries) Count(i int) int64 {
	if i < 0 || i >= len(ts.counts) {
		return 0
	}
	return ts.counts[i]
}

// Rate reports events per second in bucket i — the paper's ops/sec Y
// axis.
func (ts *TimeSeries) Rate(i int) float64 {
	return float64(ts.Count(i)) / ts.interval.Seconds()
}

// Rates returns the whole curve as events/second.
func (ts *TimeSeries) Rates() []float64 {
	out := make([]float64, len(ts.counts))
	for i := range ts.counts {
		out[i] = ts.Rate(i)
	}
	return out
}

// String renders "t=Xs rate" lines.
func (ts *TimeSeries) String() string {
	var sb strings.Builder
	for i := range ts.counts {
		fmt.Fprintf(&sb, "t=%.0fs %.1f/s\n", (sim.Time(i) * ts.interval).Seconds(), ts.Rate(i))
	}
	return sb.String()
}

// HistogramTimeline keeps one latency histogram per time interval —
// Figure 4's three-dimensional view, where the disk peak fades and
// the memory peak grows as the cache warms.
type HistogramTimeline struct {
	interval sim.Time
	offset   sim.Time
	hists    []*Histogram
}

// NewHistogramTimelineOffset returns a timeline whose snapshot 0
// starts at the given virtual time.
func NewHistogramTimelineOffset(interval, start sim.Time) *HistogramTimeline {
	if interval <= 0 {
		panic("metrics: non-positive timeline interval")
	}
	return &HistogramTimeline{interval: interval, offset: start}
}

// Record adds a latency observation at virtual time t.
func (tl *HistogramTimeline) Record(t sim.Time, d sim.Time) {
	t -= tl.offset
	if t < 0 {
		t = 0
	}
	idx := int(t / tl.interval)
	for len(tl.hists) <= idx {
		tl.hists = append(tl.hists, &Histogram{})
	}
	tl.hists[idx].Record(d)
}

// Snapshots reports the number of intervals.
func (tl *HistogramTimeline) Snapshots() int { return len(tl.hists) }

// At returns the histogram of interval i (nil if untouched).
func (tl *HistogramTimeline) At(i int) *Histogram {
	if i < 0 || i >= len(tl.hists) {
		return nil
	}
	return tl.hists[i]
}

// Interval reports the snapshot width.
func (tl *HistogramTimeline) Interval() sim.Time { return tl.interval }

// Offset reports the virtual time of snapshot 0's start.
func (tl *HistogramTimeline) Offset() sim.Time { return tl.offset }

// Merge folds another timeline's snapshots in, interval by interval,
// panicking on mismatched interval or offset like TimeSeries.Merge.
func (tl *HistogramTimeline) Merge(other *HistogramTimeline) {
	if other == nil {
		return
	}
	if other.interval != tl.interval || other.offset != tl.offset {
		panic("metrics: merging misaligned histogram timelines")
	}
	for len(tl.hists) < len(other.hists) {
		tl.hists = append(tl.hists, &Histogram{})
	}
	for i, h := range other.hists {
		tl.hists[i].Merge(h)
	}
}

// Counter is a plain operation/error counter pair used by the
// workload engine.
type Counter struct {
	Ops    int64
	Errors int64
	Bytes  int64
}

// Add merges another counter.
func (c *Counter) Add(other Counter) {
	c.Ops += other.Ops
	c.Errors += other.Errors
	c.Bytes += other.Bytes
}
