package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// The virtual clock lives in the EventLoop: these tests pin its
// contract — zero value at time zero, moved only by firing events,
// never backwards.

func TestClockZeroValue(t *testing.T) {
	var l EventLoop
	if l.Now() != 0 {
		t.Fatalf("zero loop Now() = %d, want 0", l.Now())
	}
	l.Schedule(Second, func() {})
	l.Run()
	if l.Now() != Second {
		t.Fatalf("zero loop after one event: Now() = %v, want 1s", l.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	l := NewEventLoop(0)
	l.Schedule(5*Second, func() {})
	if !l.Step() {
		t.Fatal("Step ran nothing")
	}
	if got := l.Now(); got != 5*Second {
		t.Fatalf("Now() = %v, want 5s", got)
	}
	if l.Step() {
		t.Fatal("Step on an empty loop ran an event")
	}
	if got := l.Now(); got != 5*Second {
		t.Fatalf("empty Step moved the clock: %v", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	l := NewEventLoop(10 * Second)
	var at []Time
	l.Schedule(5*Second, func() { at = append(at, l.Now()) }) // in the past: clamped
	l.Schedule(20*Second, func() { at = append(at, l.Now()) })
	l.Run()
	if len(at) != 2 || at[0] != 10*Second || at[1] != 20*Second {
		t.Fatalf("events fired at %v, want [10s 20s]", at)
	}
}

func TestDurationConversion(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %v, want 2", got)
	}
	if got := (1500 * Millisecond).String(); got != "1.5s" {
		t.Fatalf("String() = %q, want 1.5s", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seeded RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("differently seeded RNGs agreed on %d/100 draws", same)
	}
}

func TestRNGZeroSeedValid(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded RNG produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	child := r.Split()
	// The child's stream must not be the parent's continued stream.
	parentNext := make([]uint64, 10)
	for i := range parentNext {
		parentNext[i] = r.Uint64()
	}
	collisions := 0
	for i := 0; i < 10; i++ {
		v := child.Uint64()
		for _, p := range parentNext {
			if v == p {
				collisions++
			}
		}
	}
	if collisions > 0 {
		t.Fatalf("child stream collided with parent stream %d times", collisions)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(4)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from expected %.0f", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(8)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestNormalClamped(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.NormalClamped(5, 10, 0, 7)
		if v < 0 || v > 7 {
			t.Fatalf("NormalClamped escaped bounds: %v", v)
		}
	}
}

func TestParetoMinimum(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto(2, 1.5) = %v below xm", v)
		}
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := NewRNG(13)
	z := NewZipf(r, 100, 1.1)
	counts := make([]int, 100)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// Rank 0 of a Zipf(1.1) over 100 items should take a large share.
	if frac := float64(counts[0]) / draws; frac < 0.10 {
		t.Errorf("Zipf head share = %v, want > 0.10", frac)
	}
}

func TestZipfPanics(t *testing.T) {
	r := NewRNG(14)
	for _, tc := range []struct {
		n int64
		s float64
	}{{0, 1.1}, {10, 0}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(r, tc.n, tc.s)
		}()
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkRNGIntn(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1 << 20)
	}
}
