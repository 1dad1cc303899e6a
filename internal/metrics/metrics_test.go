package metrics

import (
	"os"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10}, {1 << 20, 20}, {1<<33 + 5, 32},
	}
	for _, c := range cases {
		if got := Bucket(c.ns); got != c.want {
			t.Errorf("Bucket(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestBucketLowInverse(t *testing.T) {
	f := func(b uint8) bool {
		bucket := int(b % NumBuckets)
		low := BucketLow(bucket)
		return Bucket(low) == bucket
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	h.Record(100)
	h.Record(200)
	h.Record(300)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 200 {
		t.Fatalf("Mean = %v, want 200", h.Mean())
	}
	if h.min != 100 || h.Max() != 300 {
		t.Fatalf("min/Max = %d/%d", h.min, h.Max())
	}
}

func TestHistogramPercentages(t *testing.T) {
	var h Histogram
	for i := 0; i < 80; i++ {
		h.Record(4 * sim.Microsecond) // bucket 11 (4096ns)
	}
	for i := 0; i < 20; i++ {
		h.Record(8 * sim.Millisecond) // bucket 22
	}
	pct := h.Percentages()
	if pct[Bucket(4000)] != 80 {
		t.Errorf("memory bucket share = %v, want 80", pct[Bucket(4000)])
	}
	if pct[Bucket(8e6)] != 20 {
		t.Errorf("disk bucket share = %v, want 20", pct[Bucket(8e6)])
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Record(1000)
	}
	h.Record(sim.Time(100 * sim.Millisecond))
	p50 := h.Percentile(50)
	if p50 > 2047 {
		t.Errorf("p50 = %d, want within bucket of 1000ns", p50)
	}
	p999 := h.Percentile(99.9)
	if p999 < int64(50*sim.Millisecond) {
		t.Errorf("p99.9 = %d, want to reach the outlier bucket", p999)
	}
	if (&Histogram{}).Percentile(50) != 0 {
		t.Error("empty percentile != 0")
	}
}

// TestMain runs the whole package strict: any test that slips a
// fraction into Percentile panics instead of silently reading ~p1.
func TestMain(m *testing.M) {
	StrictPercentiles = true
	os.Exit(m.Run())
}

// TestPercentileFractionFootgun pins the fraction-vs-percent API
// hazard: Percentile takes 0–100, so a caller writing the fraction
// 0.99 for "p99" silently gets roughly p1 — and the StrictPercentiles
// debug guard (armed suite-wide by TestMain) turns exactly that
// mistake into a panic.
func TestPercentileFractionFootgun(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(sim.Time(i) * sim.Millisecond)
	}
	// The footgun with the guard off: the fraction lands at or below
	// p1, nowhere near p99.
	StrictPercentiles = false
	//fslint:ignore percentile deliberate footgun probe: asserts what the fraction spelling returns
	got, p1, p99 := h.Percentile(0.99), h.Percentile(1), h.Percentile(99)
	StrictPercentiles = true
	if got > p1 || got >= p99 {
		t.Errorf("Percentile(0.99) = %d, want ≤ p1 (%d) and far below p99 (%d)", got, p1, p99)
	}
	// Whole percents (and the edge values) still work under the guard.
	if h.Percentile(99) == 0 || h.Percentile(1) == 0 || h.Percentile(0) != 0 {
		t.Error("strict mode broke legitimate percent arguments")
	}
	defer func() {
		if recover() == nil {
			t.Error("StrictPercentiles did not panic on Percentile(0.99)")
		}
	}()
	//fslint:ignore percentile deliberate footgun probe: asserts the strict-mode panic
	h.Percentile(0.99)
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Record(100)
	a.Record(200)
	b.Record(1 << 20)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != 1<<20 || a.min != 100 {
		t.Fatalf("merged min/max = %d/%d", a.min, a.Max())
	}
	// Merge must equal recording everything into one histogram.
	var c Histogram
	for _, v := range []sim.Time{100, 200, 1 << 20} {
		c.Record(v)
	}
	if c != a {
		t.Error("merge result differs from direct recording")
	}
}

func TestHistogramMergeProperty(t *testing.T) {
	f := func(xs []uint32, ys []uint32) bool {
		var a, b, all Histogram
		for _, x := range xs {
			a.Record(sim.Time(x))
			all.Record(sim.Time(x))
		}
		for _, y := range ys {
			b.Record(sim.Time(y))
			all.Record(sim.Time(y))
		}
		a.Merge(&b)
		return a == all
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramModes(t *testing.T) {
	var h Histogram
	// Unimodal.
	for i := 0; i < 100; i++ {
		h.Record(4 * sim.Microsecond)
	}
	if modes := h.Modes(0.05); len(modes) != 1 {
		t.Fatalf("unimodal Modes = %v", modes)
	}
	// Add a second, distant peak: bimodal (the Figure 3b shape).
	for i := 0; i < 90; i++ {
		h.Record(8 * sim.Millisecond)
	}
	if modes := h.Modes(0.05); len(modes) != 2 {
		t.Fatalf("bimodal Modes = %v, want 2 modes", modes)
	}
	// Empty histogram.
	if modes := (&Histogram{}).Modes(0.05); modes != nil {
		t.Fatalf("empty Modes = %v", modes)
	}
}

func TestFormatLabel(t *testing.T) {
	for b, want := range map[int]string{
		0:  "0ns",
		4:  "16ns",
		12: "4us",
		20: "1ms",
		24: "17ms",
		28: "268ms",
	} {
		if got := FormatLabel(b); got != want {
			t.Errorf("FormatLabel(%d) = %q, want %q", b, got, want)
		}
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Record(4096)
	s := h.String()
	if !strings.Contains(s, "4us") || !strings.Contains(s, "n=1") {
		t.Errorf("String() = %q", s)
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeriesOffset(10*sim.Second, 0)
	for i := 0; i < 100; i++ {
		ts.Add(sim.Time(i)*sim.Second/2, 1) // 2 events/sec for 50s
	}
	if ts.Buckets() != 5 {
		t.Fatalf("Buckets = %d, want 5", ts.Buckets())
	}
	if got := ts.Count(0) + ts.Count(1) + ts.Count(2) + ts.Count(3) + ts.Count(4); got != 100 {
		t.Fatalf("total = %d, want 100", got)
	}
	if r := ts.Rate(0); r != 2.0 {
		t.Fatalf("Rate(0) = %v, want 2", r)
	}
	if got := len(ts.Rates()); got != 5 {
		t.Fatalf("len(Rates) = %d", got)
	}
	if ts.Count(99) != 0 || ts.Rate(99) != 0 {
		t.Fatal("out-of-range bucket not zero")
	}
}

func TestTimeSeriesNegativeTimeClamped(t *testing.T) {
	ts := NewTimeSeriesOffset(sim.Second, 0)
	ts.Add(-5, 1)
	if ts.Count(0) != 1 {
		t.Fatal("negative time not clamped to bucket 0")
	}
}

func TestHistogramTimeline(t *testing.T) {
	tl := NewHistogramTimelineOffset(10*sim.Second, 0)
	// Early: disk latencies; late: memory latencies.
	for i := 0; i < 100; i++ {
		tl.Record(sim.Time(i)*sim.Second/10, 8*sim.Millisecond)
	}
	for i := 0; i < 100; i++ {
		tl.Record(100*sim.Second+sim.Time(i), 2*sim.Microsecond)
	}
	if tl.Snapshots() != 11 {
		t.Fatalf("Snapshots = %d, want 11", tl.Snapshots())
	}
	early := tl.At(0)
	late := tl.At(10)
	if early.Modes(0.1)[0] <= late.Modes(0.1)[0] {
		t.Error("early snapshot should be slower-moded than late snapshot")
	}
	if tl.At(99) != nil || tl.At(-1) != nil {
		t.Error("out-of-range At not nil")
	}
	merged := &Histogram{}
	for i := 0; i < tl.Snapshots(); i++ {
		merged.Merge(tl.At(i))
	}
	if merged.Count() != 200 {
		t.Fatalf("merged count = %d", merged.Count())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(Counter{Ops: 3, Errors: 1, Bytes: 4096})
	c.Add(Counter{Ops: 2})
	if c.Ops != 5 || c.Errors != 1 || c.Bytes != 4096 {
		t.Fatalf("Counter = %+v", c)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Record(sim.Time(i & 0xFFFFF))
	}
}

func TestPerOwnerRecordAndOps(t *testing.T) {
	var p PerOwner
	p.Record(2, 10)
	p.Record(0, 5)
	p.Record(2, 20)
	p.Record(-1, 99) // ignored
	if got := len(p.Ops()); got != 3 {
		t.Fatalf("owner slots = %d, want 3", got)
	}
	ops := p.Ops()
	if ops[0] != 1 || ops[1] != 0 || ops[2] != 2 {
		t.Fatalf("Ops = %v", ops)
	}
	if got := p.OpsPadded(5); len(got) != 5 || got[4] != 0 {
		t.Fatalf("OpsPadded(5) = %v", got)
	}
	if h := p.Hist(2); h == nil || h.Count() != 2 {
		t.Fatal("Hist(2) wrong")
	}
	if p.Hist(7) != nil {
		t.Error("Hist out of range should be nil")
	}
}

func TestPerOwnerMerge(t *testing.T) {
	var a, b PerOwner
	a.Record(0, 10)
	b.Record(0, 20)
	b.Record(3, 30)
	a.Merge(&b)
	a.Merge(nil)
	ops := a.Ops()
	if ops[0] != 2 || ops[3] != 1 {
		t.Fatalf("merged Ops = %v", ops)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex(nil); got != 0 {
		t.Errorf("JainIndex(nil) = %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero = %v, want 0", got)
	}
	if got := JainIndex([]float64{5, 5, 5, 5}); got != 1 {
		t.Errorf("equal shares = %v, want 1", got)
	}
	// One owner takes everything: index = 1/n.
	if got := JainIndex([]float64{12, 0, 0, 0}); got != 0.25 {
		t.Errorf("winner-take-all = %v, want 0.25", got)
	}
	if got := JainIndexCounts([]int64{1, 3}); got <= 0.25 || got >= 1 {
		t.Errorf("skewed counts = %v, want in (0.25, 1)", got)
	}
	// Starvation must lower the index.
	fair := JainIndexCounts([]int64{10, 10, 10, 10})
	starved := JainIndexCounts([]int64{28, 10, 1, 1})
	if starved >= fair {
		t.Errorf("starved %v not below fair %v", starved, fair)
	}
}
