package warehouse

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fs/ext3sim"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testExperiment(seed uint64) *core.Experiment {
	return &core.Experiment{
		Name: "wh-test",
		Stack: core.StackConfig{
			FS: "ext2", Device: "hdd", DiskBytes: 1 << 30,
			RAMBytes: 64 << 20, OSReserveBytes: 13 << 20,
			CachePolicy: "lru",
		},
		Workload: workload.RandomRead(4<<20, 4<<10, 1),
		Runs:     2,
		Duration: 400 * sim.Millisecond,
		Seed:     seed,
	}
}

func TestFingerprintIgnoresSeedAndRuns(t *testing.T) {
	a, b := testExperiment(1), testExperiment(999)
	b.Runs = 10
	b.Parallelism = 3
	if Fingerprint(a) != Fingerprint(b) {
		t.Errorf("fingerprint depends on seed/runs/parallelism:\n a=%s\n b=%s",
			Fingerprint(a), Fingerprint(b))
	}
}

func TestFingerprintIgnoresShards(t *testing.T) {
	// Shard count is an execution knob: records at any shard count
	// must pool under one fingerprint, like Parallelism.
	a, b := testExperiment(1), testExperiment(1)
	b.Stack.Shards = 4
	if Fingerprint(a) != Fingerprint(b) {
		t.Errorf("fingerprint depends on shard count:\n a=%s\n b=%s",
			Fingerprint(a), Fingerprint(b))
	}
}

// TestFingerprintSeesShardMode is the other half of the shard-knob
// decision: when a mode is set, the measured system changes with the
// shard count (one contended queue, an N-way cache split), so BOTH
// the mode and the count must move the fingerprint — pooling
// shared-device records across shard counts would compare different
// systems under one key.
func TestFingerprintSeesShardMode(t *testing.T) {
	replica := testExperiment(1)
	replica.Stack.Shards = 4

	shared := testExperiment(1)
	shared.Stack.Shards = 4
	shared.Stack.ShardMode = core.ShardModeSharedDevice
	if Fingerprint(shared) == Fingerprint(replica) {
		t.Error("shard mode did not move the fingerprint")
	}

	shared2 := testExperiment(1)
	shared2.Stack.Shards = 2
	shared2.Stack.ShardMode = core.ShardModeSharedDevice
	if Fingerprint(shared) == Fingerprint(shared2) {
		t.Error("shard count did not move a shared-device fingerprint")
	}
}

func TestRecordCarriesShardMode(t *testing.T) {
	e := testExperiment(1)
	e.Stack.Shards = 2
	e.Stack.ShardMode = core.ShardModeSharedDevice
	res := &core.Result{Experiment: e, Hist: &metrics.Histogram{}}
	rec := FromResult(res, "", time.Unix(0, 0))
	if rec.ShardMode != core.ShardModeSharedDevice {
		t.Errorf("record shard mode = %q, want %q", rec.ShardMode, core.ShardModeSharedDevice)
	}
}

func TestFingerprintFrozenSerialization(t *testing.T) {
	// Pins the exact fingerprint of a fixed experiment. If this
	// changes, every committed baseline (ci/baseline.jsonl) is
	// orphaned: the serialization surface (StackConfig.String plus the
	// WDL and proto lines) is frozen precisely so StackConfig can grow
	// execution knobs without moving this value. Update the constant
	// only with a deliberate, documented baseline migration.
	//
	// Migrated once when String() learned the disk/readahead/l2/noise
	// knobs: configs setting them (testExperiment sets DiskBytes) had
	// been colliding with configs that did not, so their fingerprints
	// moved by design and ci/baseline.jsonl was regenerated with
	// "go run ./cmd/fsgate -update".
	const frozen = "72d7bcf9893f83add1f12def"
	if got := Fingerprint(testExperiment(1)); got != frozen {
		t.Errorf("fingerprint serialization drifted: got %s want %s", got, frozen)
	}
}

func TestRecordCarriesShards(t *testing.T) {
	e := testExperiment(1)
	e.Stack.Shards = 4
	res := &core.Result{Experiment: e, Hist: &metrics.Histogram{}}
	rec := FromResult(res, "", time.Unix(0, 0))
	if rec.Shards != 4 {
		t.Errorf("record shards = %d, want 4", rec.Shards)
	}
}

func TestFingerprintSeesConfig(t *testing.T) {
	base := Fingerprint(testExperiment(1))
	mutations := map[string]func(*core.Experiment){
		"device":   func(e *core.Experiment) { e.Stack.Device = "nvme" },
		"cache":    func(e *core.Experiment) { e.Stack.RAMBytes = 128 << 20 },
		"workload": func(e *core.Experiment) { e.Workload = workload.SequentialRead(4<<20, 4<<10, 1) },
		"duration": func(e *core.Experiment) { e.Duration = 800 * sim.Millisecond },
		"window":   func(e *core.Experiment) { e.MeasureWindow = 100 * sim.Millisecond },
		"cold":     func(e *core.Experiment) { e.ColdCache = true },
		"kinds":    func(e *core.Experiment) { e.Kinds = []workload.OpKind{workload.OpReadRand} },
		// The conditional tail of StackConfig.String: every knob that
		// changes what is measured must move the hash (the
		// stringerfreeze lint pins the same property statically).
		"ext3mode":  func(e *core.Experiment) { e.Stack.Ext3Mode = ext3sim.Journal },
		"diskbytes": func(e *core.Experiment) { e.Stack.DiskBytes = 2 << 30 },
		"readahead": func(e *core.Experiment) { e.Stack.Readahead = "none" },
		"l2bytes":   func(e *core.Experiment) { e.Stack.L2Bytes = 256 << 20 },
		"cpunoise":  func(e *core.Experiment) { e.Stack.CPUNoiseFrac = 0.02 },
	}
	for name, mutate := range mutations {
		e := testExperiment(1)
		mutate(e)
		if Fingerprint(e) == base {
			t.Errorf("%s change did not move the fingerprint", name)
		}
	}
}

func histOf(ns ...sim.Time) *metrics.Histogram {
	h := &metrics.Histogram{}
	for _, d := range ns {
		h.Record(d)
	}
	return h
}

func testRecord(name, fp string, seed uint64, tputs ...float64) Record {
	rec := Record{
		Schema:      SchemaVersion,
		Fingerprint: fp,
		Name:        name,
		Seed:        seed,
		GitRev:      "abc1234",
		Time:        time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC),
		Personality: "randomread",
		FS:          "ext2",
		Device:      "hdd",
		Scheduler:   "elevator",
		Arrival:     "closed",
		Runs:        len(tputs),
		DurationNs:  int64(400 * sim.Millisecond),
	}
	for i, tput := range tputs {
		rec.PerRun = append(rec.PerRun, RunRecord{
			Seed:       seed + uint64(i),
			Ops:        int64(tput),
			Throughput: tput,
			HitRatio:   0.9,
			Hist:       histOf(100*sim.Microsecond, 200*sim.Microsecond),
		})
	}
	return rec
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := Set{
		testRecord("a", "fp1", 1, 100, 110),
		testRecord("b", "fp2", 2, 200, 210, 220),
	}
	for _, rec := range want {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestLoadRejectsTruncatedLine(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testRecord("a", "fp1", 1, 100)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Simulate a crashed writer: chop the file mid-record.
	path := filepath.Join(dir, "results.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("truncated archive loaded without error")
	}
}

func TestLoadRejectsNewerSchema(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("a", "fp1", 1, 100)
	rec.Schema = SchemaVersion + 1
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := st.Load(); err == nil {
		t.Error("newer-schema record loaded without error")
	}
}

func TestLoadMergesFilesSorted(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...Record) {
		st := &Store{dir: dir}
		for _, r := range recs {
			if err := st.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		if name != appendFile {
			if err := os.Rename(filepath.Join(dir, appendFile), filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("baseline.jsonl", testRecord("base", "fp1", 1, 100))
	write(appendFile, testRecord("cand", "fp1", 2, 120))
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	set, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0].Name != "base" || set[1].Name != "cand" {
		t.Errorf("merged load = %d records (want baseline first, then append file)", len(set))
	}
}

func TestQueryLayer(t *testing.T) {
	nvme := testRecord("c", "fp3", 3, 300)
	nvme.Device = "nvme"
	open := testRecord("d", "fp4", 4, 400)
	open.Arrival = "poisson"
	open.PerRun[0].Load = metrics.LoadGauge{Offered: 100, Completed: 80}
	set := Set{
		testRecord("a", "fp1", 1, 100, 110),
		testRecord("b", "fp2", 2, 200),
		nvme,
		open,
	}

	if got := set.Filter(Filter{Device: "nvme"}); len(got) != 1 || got[0].Name != "c" {
		t.Errorf("Filter{Device: nvme} = %d records", len(got))
	}
	if got := set.Filter(Filter{}); len(got) != len(set) {
		t.Errorf("zero Filter dropped records: %d of %d", len(got), len(set))
	}
	if got := set.Filter(Filter{Arrival: "poisson", Fingerprint: "fp4"}); len(got) != 1 {
		t.Errorf("conjunctive filter = %d records", len(got))
	}

	groups := set.GroupBy(func(r Record) string { return r.Fingerprint })
	if len(groups) != 4 || len(groups["fp1"]) != 1 {
		t.Errorf("fingerprint groups = %d", len(groups))
	}

	if got, want := set.Runs(), 5; got != want {
		t.Errorf("Runs() = %d, want %d", got, want)
	}
	if got := set.Throughputs(); !reflect.DeepEqual(got, []float64{100, 110, 200, 300, 400}) {
		t.Errorf("Throughputs() = %v", got)
	}
	// Only the open-loop run contributes a completion ratio.
	if got := set.CompletionRatios(); !reflect.DeepEqual(got, []float64{0.8}) {
		t.Errorf("CompletionRatios() = %v", got)
	}
	if got := set.LatencyMeans(); len(got) != 5 {
		t.Errorf("LatencyMeans() = %d samples, want 5", len(got))
	}
	if got := set.Fingerprints(); !reflect.DeepEqual(got, []string{"fp1", "fp2", "fp3", "fp4"}) {
		t.Errorf("Fingerprints() = %v", got)
	}
	if got := set.MergedHist().Count(); got != 10 {
		t.Errorf("MergedHist().Count() = %d, want 10", got)
	}
}

// TestRecorderEndToEnd runs a real experiment with a Store attached
// and checks the archive holds what the run measured.
func TestRecorderEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.GitRev = "deadbee"
	st.Now = func() time.Time { return time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC) }

	e := testExperiment(42)
	e.Recorder = st
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	set, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Fatalf("archive holds %d records, want 1", len(set))
	}
	rec := set[0]
	if rec.Fingerprint != Fingerprint(e) {
		t.Errorf("fingerprint = %s, want %s", rec.Fingerprint, Fingerprint(e))
	}
	if rec.GitRev != "deadbee" || rec.Seed != 42 || rec.Name != "wh-test" {
		t.Errorf("record identity = %q/%d/%q", rec.Name, rec.Seed, rec.GitRev)
	}
	if rec.Personality != "randomread" || rec.Arrival != "closed" || rec.Threads != 1 {
		t.Errorf("denormalized dims = %q/%q/%d", rec.Personality, rec.Arrival, rec.Threads)
	}
	if len(rec.PerRun) != len(res.PerRun) {
		t.Fatalf("archived %d runs, want %d", len(rec.PerRun), len(res.PerRun))
	}
	for i, m := range res.PerRun {
		if rec.PerRun[i].Throughput != m.Throughput {
			t.Errorf("run %d throughput = %v, want %v", i, rec.PerRun[i].Throughput, m.Throughput)
		}
		if rec.PerRun[i].Hist.Count() != m.Hist.Count() {
			t.Errorf("run %d hist count = %d, want %d", i, rec.PerRun[i].Hist.Count(), m.Hist.Count())
		}
	}
	if rec.Hist.Count() != res.Hist.Count() || rec.Throughput != res.Throughput {
		t.Errorf("aggregate measures diverge from the Result")
	}
}
