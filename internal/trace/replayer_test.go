package trace

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// noHorizon lets a replay run until its trace is exhausted.
const noHorizon = sim.Time(3600) * sim.Second

// replayRun is one replay's engine, what its probe recorded, and the
// virtual interval it ran over.
type replayRun struct {
	eng        *Engine
	hist       *metrics.Histogram
	per        *metrics.PerOwner
	start, end sim.Time
}

// throughput reports replayed ops per virtual second.
func (r replayRun) throughput() float64 {
	return float64(r.eng.Counter().Ops) / (r.end - r.start).Seconds()
}

// runEngine sets up and runs one replay on a fresh test mount, for
// until past the end of setup.
func runEngine(t *testing.T, cfg EngineConfig, until sim.Time) replayRun {
	t.Helper()
	m := testMount(t)
	eng, err := NewEngine(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := replayRun{eng: eng, hist: &metrics.Histogram{}, per: &metrics.PerOwner{}}
	eng.SetProbe(&workload.Probe{Hist: r.hist, PerOwner: r.per})
	if r.start, err = eng.Setup(0); err != nil {
		t.Fatal(err)
	}
	if r.end, err = eng.Run(r.start, r.start+until); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestEngineDeterministic replays the same capture twice on fresh
// stacks: every observable number must be bit-identical.
func TestEngineDeterministic(t *testing.T) {
	m := testMount(t)
	w := workload.FileServer(20, 32<<10, 2)
	eng, err := workload.NewEngine(m, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	eng.SetProbe(&workload.Probe{Trace: rec.Hook()})
	start, err := eng.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(start, start+2*sim.Second); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()

	run := func() (metrics.Counter, string) {
		r := runEngine(t, EngineConfig{Mode: Timed, Tenants: []Source{MemorySource(tr)}}, noHorizon)
		fp := ""
		for i := 0; i < metrics.NumBuckets; i++ {
			if c := r.hist.BucketCount(i); c != 0 {
				fp += string(rune('a'+i%26)) + ":" + string(rune('0'+c%10)) + " "
			}
		}
		c := r.eng.Counter()
		return metrics.Counter{Ops: c.Ops, Errors: c.Errors}, fp
	}
	c1, h1 := run()
	c2, h2 := run()
	if c1 != c2 || h1 != h2 {
		t.Errorf("replay not deterministic: %+v %q vs %+v %q", c1, h1, c2, h2)
	}
}

// TestReplayFDCap bounds the per-stream descriptor table the way a
// process rlimit would: one stream opening many more distinct files
// than the cap keeps exactly maxOpenFDs handles, the newest ones.
func TestReplayFDCap(t *testing.T) {
	const files = maxOpenFDs + 44
	tr := &Trace{}
	for i := 0; i < files; i++ {
		tr.Records = append(tr.Records, Record{
			At: sim.Time(i) * 1000, Kind: workload.OpOpen, Path: fmt.Sprintf("/f%03d", i),
		})
	}
	r := runEngine(t, EngineConfig{Mode: Timed, Tenants: []Source{MemorySource(tr)}}, noHorizon)
	st := r.eng.tenants[0].streams[0]
	if got := st.fds.Len(); got != maxOpenFDs {
		t.Errorf("stream holds %d open FDs, cap is %d", got, maxOpenFDs)
	}
	if oldest, _ := st.fds.Oldest(); oldest != fmt.Sprintf("/f%03d", files-maxOpenFDs) {
		t.Errorf("oldest open FD is %q: the cap must close the least recently opened", oldest)
	}
}

// TestReplayCloseAndDeleteReleaseFDs locks in the two descriptor
// lifecycle fixes: OpClose actually closes the named handle, and
// OpDelete releases handles before unlinking instead of silently
// dropping them.
func TestReplayCloseAndDeleteReleaseFDs(t *testing.T) {
	tr := &Trace{Records: []Record{
		{At: 0, Kind: workload.OpOpen, Path: "/a"},
		{At: 100, Kind: workload.OpOpen, Path: "/b"},
		{At: 200, Kind: workload.OpClose, Path: "/a"},
		{At: 300, Kind: workload.OpDelete, Path: "/b"},
	}}
	eng := runEngine(t, EngineConfig{Mode: Timed, Tenants: []Source{MemorySource(tr)}}, noHorizon).eng
	st := eng.tenants[0].streams[0]
	if st.fds.Len() != 0 {
		t.Errorf("stream still holds %d FDs after close+delete", st.fds.Len())
	}
	if eng.Counter().Errors != 0 {
		t.Errorf("lifecycle ops errored: %d", eng.Counter().Errors)
	}
}

// TestReplayErrorAccounting: an op that fails (stat of a deleted
// path) is counted and lands in the error histogram at its actual
// failure-return latency — not silently advanced past.
func TestReplayErrorAccounting(t *testing.T) {
	tr := &Trace{Records: []Record{
		{At: 0, Kind: workload.OpDelete, Path: "/a"},
		{At: 1000, Kind: workload.OpStat, Path: "/a"},
	}}
	r := runEngine(t, EngineConfig{Mode: Timed, Tenants: []Source{MemorySource(tr)}}, noHorizon)
	eng, hist := r.eng, r.hist
	if got := eng.Counter().Errors; got != 1 {
		t.Fatalf("errors = %d, want 1 (stat of deleted path)", got)
	}
	if got := eng.Counter().Ops; got != 1 {
		t.Errorf("ops = %d, want 1 (the delete)", got)
	}
	if got := eng.ErrorHist().Count(); got != 1 {
		t.Errorf("error histogram holds %d observations, want 1", got)
	}
	if got := hist.Count(); got != 1 {
		t.Errorf("success histogram holds %d observations, want 1", got)
	}
}

// TestReplayNamespaceReconstruction: reads of files the capture never
// creates must hit pre-sized files (real I/O), not holes in empty
// lazily-created ones.
func TestReplayNamespaceReconstruction(t *testing.T) {
	tr := &Trace{Records: []Record{
		{At: 0, Kind: workload.OpReadRand, Path: "/data/f", Offset: 1 << 20, Size: 4096},
	}}
	eng := runEngine(t, EngineConfig{Mode: Timed, Tenants: []Source{MemorySource(tr)}}, noHorizon).eng
	if eng.Counter().Errors != 0 {
		t.Fatalf("read of pre-existing file errored")
	}
	if got := eng.Counter().Bytes; got != 4096 {
		t.Errorf("read moved %d bytes, want 4096 (file must be pre-sized)", got)
	}
}

// TestReplayHorizonAbandonsBacklog: a timed replay cut short reports
// offered-but-not-completed load instead of pretending it finished.
func TestReplayHorizonAbandonsBacklog(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 50; i++ {
		tr.Records = append(tr.Records, Record{
			At: sim.Time(i) * sim.Millisecond, Kind: workload.OpReadRand,
			Path: "/big", Offset: int64(i) * 997 * 4096, Size: 4096,
		})
	}
	eng := runEngine(t, EngineConfig{Mode: Timed, Tenants: []Source{MemorySource(tr)}}, 10*sim.Millisecond).eng
	load := eng.Load()
	if load.Offered == 0 {
		t.Fatal("timed replay never touched the load gauge")
	}
	if load.Completed >= load.Offered {
		t.Errorf("offered %d completed %d: horizon should abandon backlog",
			load.Offered, load.Completed)
	}
}

// TestMultiTenantMerge: K tenants replaying the same capture get
// distinct namespaces, distinct owner ranges, and K× the records.
func TestMultiTenantMerge(t *testing.T) {
	tr := &Trace{Records: []Record{
		{At: 0, Kind: workload.OpCreate, Path: "/a", Stream: 0},
		{At: 1000, Kind: workload.OpWriteSeq, Path: "/a", Size: 4096, Stream: 0},
		{At: 2000, Kind: workload.OpReadRand, Path: "/a", Size: 4096, Stream: 1},
	}}
	src := MemorySource(tr)
	r := runEngine(t, EngineConfig{Mode: Timed, Tenants: []Source{src, src, src}}, noHorizon)
	eng, per := r.eng, r.per
	if got := eng.Workers(); got != 6 {
		t.Fatalf("workers = %d, want 6 (2 streams x 3 tenants)", got)
	}
	if got := eng.Records(); got != 9 {
		t.Errorf("records = %d, want 9", got)
	}
	if got := eng.Counter().Ops + eng.Counter().Errors; got != 9 {
		t.Errorf("replayed %d of 9 records", got)
	}
	// Every tenant's owners must have recorded: the merge keeps
	// per-tenant identity for fairness accounting.
	ops := per.OpsPadded(6)
	for owner, n := range ops {
		if n == 0 {
			t.Errorf("owner %d recorded nothing — per-tenant identity lost", owner)
		}
	}
}
