package workload

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs/ext2sim"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func testMount(t testing.TB, cachePages int) *vfs.Mount {
	t.Helper()
	fsys, err := ext2sim.New(262144) // 1 GB
	if err != nil {
		t.Fatal(err)
	}
	return vfs.New(fsys,
		device.NewHDD(device.DefaultHDD(), sim.NewRNG(21)),
		cache.NewHierarchy(cache.New(cachePages, cache.NewLRU()), nil),
		vfs.DefaultConfig())
}

func TestValidate(t *testing.T) {
	good := RandomRead(1<<20, 2048, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Workload{
		{Name: ""},
		{Name: "x", Threads: []ThreadSpec{{Name: "t", Count: 1,
			Flowops: []Flowop{{Kind: OpReadRand, FileSet: "ghost", IOSize: 1}}}}},
		{Name: "x", FileSets: []FileSet{{Name: "a", Entries: 1}},
			Threads: []ThreadSpec{{Name: "t", Count: 0,
				Flowops: []Flowop{{Kind: OpStat, FileSet: "a"}}}}},
		{Name: "x", FileSets: []FileSet{{Name: "a", Entries: 1}},
			Threads: []ThreadSpec{{Name: "t", Count: 1,
				Flowops: []Flowop{{Kind: OpReadRand, FileSet: "a", IOSize: 0}}}}},
		{Name: "x", FileSets: []FileSet{{Name: "a", Entries: 1}, {Name: "a", Entries: 1}},
			Threads: []ThreadSpec{{Name: "t", Count: 1,
				Flowops: []Flowop{{Kind: OpStat, FileSet: "a"}}}}},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("bad workload %d validated", i)
		}
	}
}

func TestAllPersonalitiesValidate(t *testing.T) {
	for _, name := range Personalities() {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("personality %q missing", name)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown personality resolved")
	}
}

func TestRandomReadRuns(t *testing.T) {
	m := testMount(t, 16384) // 64 MB cache
	w := RandomRead(16<<20, 2048, 1)
	e, err := NewEngine(m, w, 42)
	if err != nil {
		t.Fatal(err)
	}
	hist := &metrics.Histogram{}
	series := metrics.NewTimeSeriesOffset(sim.Second, 0)
	e.SetProbe(&Probe{Hist: hist, Series: series})
	start, err := e.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	end, err := e.Run(start, start+10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if end < start+10*sim.Second {
		t.Fatalf("run ended early: %v < %v", end, start+10*sim.Second)
	}
	if e.Counter().Ops < 1000 {
		t.Fatalf("only %d ops in 10s", e.Counter().Ops)
	}
	if hist.Count() == 0 || series.Buckets() == 0 {
		t.Fatal("probe recorded nothing")
	}
	if e.Counter().Errors != 0 {
		t.Fatalf("%d errors during random read", e.Counter().Errors)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() int64 {
		m := testMount(t, 4096)
		w := FileServer(50, 64<<10, 2)
		e, err := NewEngine(m, w, 7)
		if err != nil {
			t.Fatal(err)
		}
		start, err := e.Setup(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(start, start+5*sim.Second); err != nil {
			t.Fatal(err)
		}
		return e.Counter().Ops
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed runs differ: %d vs %d ops", a, b)
	}
}

func TestEngineSeedSensitivity(t *testing.T) {
	run := func(seed uint64) int64 {
		m := testMount(t, 2048)
		w := RandomRead(64<<20, 2048, 1)
		e, _ := NewEngine(m, w, seed)
		start, err := e.Setup(0)
		if err != nil {
			t.Fatal(err)
		}
		e.DropCaches()
		if _, err := e.Run(start, start+5*sim.Second); err != nil {
			t.Fatal(err)
		}
		return e.Counter().Ops
	}
	if a, b := run(1), run(2); a == b {
		t.Log("warning: two seeds produced identical op counts (possible but unlikely)")
	}
}

func TestMultiThreadContention(t *testing.T) {
	// Eight threads on a disk-bound workload must not produce 8x the
	// single-thread throughput: the device serializes them.
	ops := func(threads int) int64 {
		m := testMount(t, 256) // 1 MB cache: disk-bound
		w := RandomRead(64<<20, 2048, threads)
		e, _ := NewEngine(m, w, 3)
		start, err := e.Setup(0)
		if err != nil {
			t.Fatal(err)
		}
		e.DropCaches()
		m.ResetStats()
		if _, err := e.Run(start, start+20*sim.Second); err != nil {
			t.Fatal(err)
		}
		return e.Counter().Ops
	}
	one := ops(1)
	eight := ops(8)
	if eight > one*4 {
		t.Errorf("8 threads did %d ops vs %d for 1 thread; disk should serialize", eight, one)
	}
	if eight < one/2 {
		t.Errorf("8 threads collapsed to %d ops vs %d for 1 thread", eight, one)
	}
}

func TestCreateDeleteChurn(t *testing.T) {
	m := testMount(t, 8192)
	w := CreateDelete(8<<10, 2)
	e, err := NewEngine(m, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	start, err := e.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(start, start+10*sim.Second); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Creates < 10 || st.Unlinks < 10 || st.Stats < 10 {
		t.Fatalf("churn too weak: %+v", st)
	}
}

func TestWebServerZipfSkew(t *testing.T) {
	m := testMount(t, 32768)
	w := WebServer(200, 16<<10, 2)
	e, err := NewEngine(m, w, 9)
	if err != nil {
		t.Fatal(err)
	}
	start, err := e.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(start, start+5*sim.Second); err != nil {
		t.Fatal(err)
	}
	if e.Counter().Ops == 0 {
		t.Fatal("webserver did nothing")
	}
	// Zipf focus should give a high hit ratio even with a cache much
	// smaller than the fileset.
	if hr := m.PC.L1.Stats().HitRatio(); hr < 0.5 {
		t.Errorf("hit ratio %v under Zipf reads, want > 0.5", hr)
	}
}

func TestVarMailFsyncs(t *testing.T) {
	m := testMount(t, 8192)
	w := VarMail(100, 8<<10, 1)
	e, err := NewEngine(m, w, 11)
	if err != nil {
		t.Fatal(err)
	}
	start, err := e.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(start, start+10*sim.Second); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Fsyncs == 0 {
		t.Fatal("varmail never fsynced")
	}
}

func TestProbeFiltersAndWindow(t *testing.T) {
	m := testMount(t, 16384)
	w := RandomRead(8<<20, 2048, 1)
	e, _ := NewEngine(m, w, 13)
	hist := &metrics.Histogram{}
	start, err := e.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	// Only record the final second (the paper's steady-state window).
	e.SetProbe(&Probe{Hist: hist, HistSince: start + 4*sim.Second,
		Kinds: map[OpKind]bool{OpReadRand: true}})
	if _, err := e.Run(start, start+5*sim.Second); err != nil {
		t.Fatal(err)
	}
	total := e.Counter().Ops
	if hist.Count() >= total {
		t.Fatalf("window filter ineffective: hist %d of %d ops", hist.Count(), total)
	}
	if hist.Count() == 0 {
		t.Fatal("window filtered everything")
	}
}

func TestThinkOpAdvancesTime(t *testing.T) {
	m := testMount(t, 1024)
	w := &Workload{
		Name:     "thinker",
		FileSets: []FileSet{{Name: "d", Dir: "/d", Entries: 1, MeanSize: 4096, PreallocFrac: 1}},
		Threads: []ThreadSpec{{Name: "t", Count: 1, Flowops: []Flowop{
			{Kind: OpStat, FileSet: "d"},
			{Kind: OpThink, Think: 100 * sim.Millisecond},
		}}},
	}
	e, err := NewEngine(m, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	start, err := e.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(start, start+10*sim.Second); err != nil {
		t.Fatal(err)
	}
	// ~10 per second with the think time dominating.
	if ops := e.Counter().Ops; ops > 150 {
		t.Fatalf("think time ignored: %d ops in 10s", ops)
	}
}

func TestWDLRoundTrip(t *testing.T) {
	for _, name := range Personalities() {
		w, _ := ByName(name)
		text := FormatWDL(w)
		parsed, err := ParseWDL(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", name, err, text)
		}
		if FormatWDL(parsed) != text {
			t.Errorf("%s: WDL round trip not stable:\n%s\nvs\n%s", name, text, FormatWDL(parsed))
		}
	}
}

func TestWDLParseErrors(t *testing.T) {
	cases := []string{
		"fileset",                         // missing name
		"workload w\nthread t {",          // unterminated block
		"workload w\nbogus directive",     // unknown directive
		"workload w\nfileset a entries=x", // bad int
		"workload w\nfileset a entries=1\nthread t count=1 {\nread-rand fileset=a iosize=0\n}",
	}
	for i, src := range cases {
		if _, err := ParseWDL(strings.NewReader(src)); err == nil {
			t.Errorf("case %d parsed without error", i)
		}
	}
}

func TestWDLExample(t *testing.T) {
	src := `
# The paper's case-study workload.
workload randomread
fileset data dir=/data entries=1 size=410m prealloc=1.0
thread reader count=1 overhead=96us {
    read-rand fileset=data iosize=2k
}
`
	w, err := ParseWDL(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "randomread" || w.FileSets[0].MeanSize != 410<<20 {
		t.Fatalf("parsed = %+v", w)
	}
	if w.Threads[0].PerOpOverhead != 96*sim.Microsecond {
		t.Fatalf("overhead = %v", w.Threads[0].PerOpOverhead)
	}
	if w.Threads[0].Flowops[0].IOSize != 2048 {
		t.Fatalf("iosize = %d", w.Threads[0].Flowops[0].IOSize)
	}
}

func TestParseSize(t *testing.T) {
	for s, want := range map[string]int64{
		"4096": 4096, "2k": 2048, "410m": 410 << 20, "25g": 25 << 30, "1.5k": 1536,
	} {
		got, err := ParseSize(s)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = (%d, %v), want %d", s, got, err, want)
		}
	}
	for _, s := range []string{"", "abc", "-5k"} {
		if _, err := ParseSize(s); err == nil {
			t.Errorf("ParseSize(%q) accepted", s)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for s, want := range map[string]sim.Time{
		"96us": 96 * sim.Microsecond, "10ms": 10 * sim.Millisecond,
		"2s": 2 * sim.Second, "500ns": 500,
	} {
		got, err := ParseDuration(s)
		if err != nil || got != want {
			t.Errorf("ParseDuration(%q) = (%v, %v), want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "5", "abcms", "-1s"} {
		if _, err := ParseDuration(s); err == nil {
			t.Errorf("ParseDuration(%q) accepted", s)
		}
	}
}

func TestOpKindStringRoundTrip(t *testing.T) {
	for k := OpReadRand; k <= OpThink; k++ {
		parsed, err := ParseOpKind(k.String())
		if err != nil || parsed != k {
			t.Errorf("round trip failed for %v", k)
		}
	}
	if _, err := ParseOpKind("flarp"); err == nil {
		t.Error("ParseOpKind accepted garbage")
	}
}
