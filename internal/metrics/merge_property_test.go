package metrics

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// Property tests for Histogram.Merge: the warehouse pools per-run
// histograms into one distribution, so merging must be exactly
// equivalent to having recorded every observation into one histogram,
// regardless of how the observations were split or in what order the
// parts were merged.

// randomLatencies draws n latencies spanning the full bucket range.
func randomLatencies(rng *rand.Rand, n int) []sim.Time {
	out := make([]sim.Time, n)
	for i := range out {
		// Exponentiated uniform: hits low and high buckets alike.
		out[i] = sim.Time(rng.Int63n(1 << uint(1+rng.Intn(40))))
	}
	return out
}

func recordAll(lats []sim.Time) *Histogram {
	h := &Histogram{}
	for _, l := range lats {
		h.Record(l)
	}
	return h
}

func TestMergeEquivalentToRecording(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		lats := randomLatencies(rng, 1+rng.Intn(200))
		whole := recordAll(lats)

		// Split into k parts at random boundaries, record separately.
		k := 1 + rng.Intn(5)
		parts := make([]*Histogram, k)
		for i := range parts {
			parts[i] = &Histogram{}
		}
		for _, l := range lats {
			parts[rng.Intn(k)].Record(l)
		}

		var merged Histogram
		for _, p := range parts {
			merged.Merge(p)
		}
		if merged != *whole {
			t.Fatalf("trial %d: merge of %d parts != whole recording\nmerged: %+v\nwhole:  %+v",
				trial, k, merged, *whole)
		}

		// Order independence: merge the parts in reverse.
		var reversed Histogram
		for i := k - 1; i >= 0; i-- {
			reversed.Merge(parts[i])
		}
		if reversed != merged {
			t.Fatalf("trial %d: merge order changed the result", trial)
		}

		// Associativity: pre-merge a random prefix, then the rest.
		cut := rng.Intn(k)
		var left, right, assoc Histogram
		for _, p := range parts[:cut] {
			left.Merge(p)
		}
		for _, p := range parts[cut:] {
			right.Merge(p)
		}
		assoc.Merge(&left)
		assoc.Merge(&right)
		if assoc != merged {
			t.Fatalf("trial %d: merge not associative at cut %d", trial, cut)
		}
	}
}

func TestMergeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 100; trial++ {
		a := recordAll(randomLatencies(rng, 1+rng.Intn(100)))
		b := recordAll(randomLatencies(rng, 1+rng.Intn(100)))
		m := *a
		m.Merge(b)
		if m.Count() != a.Count()+b.Count() {
			t.Fatalf("trial %d: count %d != %d + %d", trial, m.Count(), a.Count(), b.Count())
		}
		if m.sum != a.sum+b.sum {
			t.Fatalf("trial %d: sum %d != %d + %d", trial, m.sum, a.sum, b.sum)
		}
		if m.min != min(a.min, b.min) {
			t.Fatalf("trial %d: min %d, want %d", trial, m.min, min(a.min, b.min))
		}
		if m.Max() != max(a.Max(), b.Max()) {
			t.Fatalf("trial %d: max %d, want %d", trial, m.Max(), max(a.Max(), b.Max()))
		}
		for bkt := 0; bkt < NumBuckets; bkt++ {
			if m.BucketCount(bkt) != a.BucketCount(bkt)+b.BucketCount(bkt) {
				t.Fatalf("trial %d: bucket %d not additive", trial, bkt)
			}
		}
		// A pooled percentile cannot leave the envelope of its parts.
		for _, p := range []float64{50, 90, 99, 100} {
			lo := min(a.Percentile(p), b.Percentile(p))
			hi := max(a.Percentile(p), b.Percentile(p))
			if got := m.Percentile(p); got < lo || got > hi {
				t.Fatalf("trial %d: merged p%v = %d outside [%d, %d]", trial, p, got, lo, hi)
			}
		}
	}
}

func TestMergeEmptyIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := recordAll(randomLatencies(rng, 50))
	before := *h
	h.Merge(&Histogram{})
	if *h != before {
		t.Fatal("merging an empty histogram changed the receiver")
	}
	var empty Histogram
	empty.Merge(h)
	if empty != before {
		t.Fatal("merging into an empty histogram != copy")
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		h := recordAll(randomLatencies(rng, rng.Intn(100)))
		data, err := json.Marshal(h)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		var back Histogram
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if back != *h {
			t.Fatalf("trial %d: JSON round trip lost data\nin:  %+v\nout: %+v", trial, *h, back)
		}
	}
}

func TestHistogramJSONRejectsCorruption(t *testing.T) {
	for _, bad := range []string{
		`{"count":2,"sum":10,"min":1,"max":9,"buckets":[[40,2]]}`, // index out of range
		`{"count":2,"sum":10,"min":1,"max":9,"buckets":[[3,-2]]}`, // negative count
		`{"count":5,"sum":10,"min":1,"max":9,"buckets":[[3,2]]}`,  // header/bucket mismatch
		`{"count":0,"sum":0,"min":0,"max":0,"buckets":[[-1,0]]}`,  // negative index
	} {
		var h Histogram
		if err := json.Unmarshal([]byte(bad), &h); err == nil {
			t.Errorf("corrupt histogram accepted: %s", bad)
		}
	}
}
