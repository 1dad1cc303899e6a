package workload

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// testMounts builds n independent stacks with per-index device seeds.
func testMounts(t testing.TB, n, cachePages int) []*vfs.Mount {
	t.Helper()
	out := make([]*vfs.Mount, n)
	for i := range out {
		out[i] = testMount(t, cachePages)
	}
	return out
}

// shardedRunFingerprint runs w across n shards and serializes every
// observable number.
func shardedRunFingerprint(t *testing.T, w *Workload, n int, seed uint64) string {
	t.Helper()
	se, err := NewShardedEngine(testMounts(t, n, 2048), w, seed)
	if err != nil {
		t.Fatal(err)
	}
	start, err := se.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	hist := &metrics.Histogram{}
	series := metrics.NewTimeSeriesOffset(sim.Second, start)
	po := &metrics.PerOwner{}
	se.SetProbe(&Probe{Hist: hist, Series: series, PerOwner: po})
	end, err := se.Run(start, start+4*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := se.Counter()
	g := se.Load()
	qs := se.QueueStats()
	histJSON, err := json.Marshal(hist)
	if err != nil {
		t.Fatal(err)
	}
	fp := fmt.Sprintf("end=%d ops=%d errs=%d bytes=%d load=%d/%d/%d q=%d/%d/%d wait=%d hist=%s",
		end, c.Ops, c.Errors, c.Bytes, g.Offered, g.Completed, g.BacklogPeak,
		qs.Submitted, qs.Completed, qs.MaxQueued, qs.Wait,
		histJSON)
	for i := 0; i < series.Buckets(); i++ {
		fp += fmt.Sprintf(" s%d=%d", i, series.Count(i))
	}
	for i, n := range po.Ops() {
		fp += fmt.Sprintf(" o%d=%d", i, n)
	}
	return fp
}

func TestShardedEngineDeterministic(t *testing.T) {
	for _, n := range []int{2, 4} {
		for _, w := range []*Workload{
			FileServer(60, 16<<10, 6),
			RandomRead(16<<20, 2048, 4),
			OpenLoopRead(8<<20, 2048, 4, 2000),
		} {
			first := shardedRunFingerprint(t, w, n, 7)
			if got := shardedRunFingerprint(t, w, n, 7); got != first {
				t.Errorf("%s shards=%d: repeat diverged:\n%s\nvs\n%s", w.Name, n, got, first)
			}
		}
	}
}

func TestShardedEnginePartitioning(t *testing.T) {
	w := FileServer(60, 16<<10, 6) // one class, 6 threads
	se, err := NewShardedEngine(testMounts(t, 4, 2048), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Closed-loop threads deal round-robin; owner IDs stay global and
	// unique.
	seen := map[int]int{} // owner -> shard
	for i, sh := range se.shards {
		for _, th := range sh.threads {
			if prev, dup := seen[th.owner]; dup {
				t.Fatalf("owner %d on shards %d and %d", th.owner, prev, i)
			}
			seen[th.owner] = i
			if th.owner%4 != i {
				t.Errorf("owner %d on shard %d, want %d", th.owner, i, th.owner%4)
			}
		}
	}
	if len(seen) != w.TotalThreads() {
		t.Fatalf("%d threads placed, want %d", len(seen), w.TotalThreads())
	}
	// Every shard replicates every fileset.
	for i, sh := range se.shards {
		if len(sh.sets) != len(w.FileSets) {
			t.Errorf("shard %d has %d filesets, want %d", i, len(sh.sets), len(w.FileSets))
		}
	}
}

func TestShardedEngineOpenClassIndivisible(t *testing.T) {
	w := OpenLoopRead(8<<20, 2048, 6, 2000) // one open class, 6 workers
	se, err := NewShardedEngine(testMounts(t, 3, 2048), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The whole class — generator and all workers — lives on shard 0
	// (first open class, 0 mod 3).
	if got := len(se.shards[0].classes); got != 1 {
		t.Fatalf("shard 0 has %d classes, want 1", got)
	}
	if got := len(se.shards[0].threads); got != 6 {
		t.Fatalf("shard 0 has %d workers, want all 6", got)
	}
	for i := 1; i < 3; i++ {
		if len(se.shards[i].classes) != 0 || len(se.shards[i].threads) != 0 {
			t.Errorf("shard %d not empty: %d classes %d threads",
				i, len(se.shards[i].classes), len(se.shards[i].threads))
		}
	}
	// Empty shards must not wedge the run.
	start, err := se.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Run(start, start+sim.Second); err != nil {
		t.Fatal(err)
	}
	if se.Counter().Ops == 0 {
		t.Error("sharded open-loop run completed no ops")
	}
}

func TestShardedEngineRejectsTrace(t *testing.T) {
	w := RandomRead(1<<20, 2048, 2)
	se, err := NewShardedEngine(testMounts(t, 2, 2048), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	start, err := se.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	se.SetProbe(&Probe{Trace: func(int, OpKind, string, int64, int64, sim.Time, sim.Time) {}})
	if _, err := se.Run(start, start+sim.Second); err == nil {
		t.Error("tracing sharded run did not error")
	}
}

func TestShardedEngineRejectsSharedMount(t *testing.T) {
	m := testMount(t, 2048)
	if _, err := NewShardedEngine([]*vfs.Mount{m, m}, RandomRead(1<<20, 2048, 2), 1); err == nil {
		t.Error("duplicate mount accepted")
	}
}
