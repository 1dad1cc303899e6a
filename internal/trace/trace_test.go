package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs/ext2sim"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// readAll decodes a whole FSBT v2 trace into memory.
func readAll(r io.Reader) (*Trace, error) {
	tr, err := OpenReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{}
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Records = append(t.Records, rec)
	}
}

func testMount(t testing.TB) *vfs.Mount {
	t.Helper()
	fsys, err := ext2sim.New(262144)
	if err != nil {
		t.Fatal(err)
	}
	return vfs.New(fsys,
		device.NewHDD(device.DefaultHDD(), sim.NewRNG(31)),
		cache.NewHierarchy(cache.New(8192, cache.NewLRU()), nil),
		vfs.DefaultConfig())
}

func sampleTrace() *Trace {
	return &Trace{Records: []Record{
		{At: 0, Kind: workload.OpCreate, Path: "/t/a"},
		{At: 1000, Kind: workload.OpWriteSeq, Path: "/t/a", Offset: 0, Size: 8192},
		{At: 5000, Kind: workload.OpReadRand, Path: "/t/a", Offset: 4096, Size: 2048},
		{At: 9000, Kind: workload.OpStat, Path: "/t/a"},
		{At: 12000, Kind: workload.OpFsync, Path: "/t/a"},
		{At: 20000, Kind: workload.OpDelete, Path: "/t/a"},
	}}
}

func TestBinaryRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := orig.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(orig.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(orig.Records))
	}
	for i := range got.Records {
		if got.Records[i] != orig.Records[i] {
			t.Errorf("record %d = %+v, want %+v", i, got.Records[i], orig.Records[i])
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := readAll(strings.NewReader("not a trace")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := readAll(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(times []uint32, kinds []uint8, offs []int32) bool {
		n := len(times)
		if len(kinds) < n {
			n = len(kinds)
		}
		if len(offs) < n {
			n = len(offs)
		}
		tr := &Trace{}
		var at sim.Time
		for i := 0; i < n; i++ {
			at += sim.Time(times[i] % 1e6)
			tr.Records = append(tr.Records, Record{
				At:     at,
				Kind:   workload.OpKind(kinds[i] % 15),
				Path:   "/p" + string(rune('a'+kinds[i]%5)),
				Offset: int64(offs[i]),
				Size:   int64(times[i] % 65536),
			})
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := readAll(&buf)
		if err != nil || len(got.Records) != len(tr.Records) {
			return false
		}
		for i := range got.Records {
			if got.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRecorderCapturesWorkload(t *testing.T) {
	m := testMount(t)
	w := workload.FileServer(20, 32<<10, 1)
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
	if len(tr.Records) == 0 {
		t.Fatal("recorder captured nothing")
	}
	if tr.Records[0].At != 0 {
		t.Errorf("first record at %v, want 0 (relative times)", tr.Records[0].At)
	}
	// Times must be non-decreasing... per thread they are; globally
	// threads interleave, so only check plausibility.
	for i, r := range tr.Records {
		if r.At < 0 {
			t.Fatalf("record %d has negative time", i)
		}
	}
}

func TestReplayRoundTrip(t *testing.T) {
	// Record a workload, replay it on a fresh stack, compare op
	// counts.
	m := testMount(t)
	w := workload.FileServer(20, 32<<10, 1)
	eng, _ := workload.NewEngine(m, w, 3)
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

	r := runEngine(t, EngineConfig{Mode: AFAP, Tenants: []Source{MemorySource(tr)}}, noHorizon)
	c := r.eng.Counter()
	if c.Ops+c.Errors != int64(len(tr.Records)) {
		t.Errorf("replayed %d+%d of %d records", c.Ops, c.Errors, len(tr.Records))
	}
	// FileServer traces touch files created before the trace window;
	// the replayer creates them on demand, so errors should be rare.
	if c.Errors > c.Ops/4 {
		t.Errorf("too many replay errors: %d of %d", c.Errors, len(tr.Records))
	}
	if r.hist.Count() == 0 {
		t.Error("replay recorded no latencies")
	}
}

func TestReplayTimedRespectsSchedule(t *testing.T) {
	tr := &Trace{Records: []Record{
		{At: 0, Kind: workload.OpCreate, Path: "/a"},
		{At: sim.Time(2 * sim.Second), Kind: workload.OpStat, Path: "/a"},
	}}
	timed := runEngine(t, EngineConfig{Mode: Timed, Tenants: []Source{MemorySource(tr)}}, noHorizon)
	if timed.end-timed.start < 2*sim.Second {
		t.Errorf("timed replay took %v, less than the last record's schedule", timed.end-timed.start)
	}
	// AFAP ignores the gap.
	afap := runEngine(t, EngineConfig{Mode: AFAP, Tenants: []Source{MemorySource(tr)}}, noHorizon)
	if afap.end-afap.start >= 2*sim.Second {
		t.Errorf("AFAP replay took %v, should ignore schedule", afap.end-afap.start)
	}
	if afap.throughput() <= timed.throughput() {
		t.Error("AFAP not faster than timed replay")
	}
}
