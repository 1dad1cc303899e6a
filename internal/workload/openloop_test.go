package workload

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// openLoopRun executes an engine-level open-loop run on a memory-bound
// testbed (the 4 MB file sits fully in the 64 MB cache after setup, so
// service time is pure software cost and capacity is sharp).
func openLoopRun(t *testing.T, w *Workload, seed uint64, dur sim.Time) (*Engine, *metrics.Histogram, sim.Time) {
	t.Helper()
	m := testMount(t, 16384)
	e, err := NewEngine(m, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	hist := &metrics.Histogram{}
	e.SetProbe(&Probe{Hist: hist})
	start, err := e.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	end, err := e.Run(start, start+dur)
	if err != nil {
		t.Fatal(err)
	}
	return e, hist, end - start
}

// closedCapacity measures the closed-loop single-thread throughput of
// the memory-bound testbed — the service capacity the open-loop tests
// offer load against.
func closedCapacity(t *testing.T, dur sim.Time) (opsPerSec float64, p99 int64) {
	t.Helper()
	e, hist, _ := openLoopRun(t, RandomRead(4<<20, 2048, 1), 41, dur)
	if e.Counter().Errors != 0 {
		t.Fatalf("closed run errored: %+v", e.Counter())
	}
	return float64(e.Counter().Ops) / dur.Seconds(), hist.Percentile(99)
}

// TestOpenLoopClosedLoopDivergence is the acceptance test for the
// open-loop arrival process: below capacity the completed throughput
// matches the offered rate (and the closed loop's), while just above
// capacity open-loop p99 — measured from arrival — diverges from the
// closed-loop p99 by orders of magnitude as the backlog grows. The
// closed loop cannot show this: it self-throttles to capacity and its
// latency stays at service scale no matter the intended load.
func TestOpenLoopClosedLoopDivergence(t *testing.T) {
	const dur = 3 * sim.Second
	capacity, closedP99 := closedCapacity(t, dur)
	if capacity < 1000 {
		t.Fatalf("memory-bound capacity %.0f ops/s implausibly low", capacity)
	}

	// Below capacity: a single worker absorbs the whole offered load.
	belowRate := 0.6 * capacity
	eBelow, histBelow, _ := openLoopRun(t, OpenLoopRead(4<<20, 2048, 1, belowRate), 43, dur)
	loadBelow := eBelow.Load()
	if loadBelow.Offered == 0 {
		t.Fatal("open-loop generator offered nothing")
	}
	if ratio := loadBelow.CompletionRatio(); ratio < 0.97 {
		t.Errorf("below capacity: completed %d of %d offered (%.2f), want ~all",
			loadBelow.Completed, loadBelow.Offered, ratio)
	}
	wantOffered := belowRate * dur.Seconds()
	if got := float64(loadBelow.Offered); got < 0.85*wantOffered || got > 1.15*wantOffered {
		t.Errorf("offered %v ops at rate %.0f over %v, want ~%.0f", got, belowRate, dur, wantOffered)
	}

	// Just above capacity: completions pin at capacity, the backlog
	// grows, and arrival-to-completion p99 explodes.
	aboveRate := 1.5 * capacity
	eAbove, histAbove, _ := openLoopRun(t, OpenLoopRead(4<<20, 2048, 1, aboveRate), 47, dur)
	loadAbove := eAbove.Load()
	completedRate := float64(loadAbove.Completed) / dur.Seconds()
	if completedRate > 1.1*capacity {
		t.Errorf("above capacity completed %.0f ops/s, cannot exceed capacity %.0f", completedRate, capacity)
	}
	if completedRate < 0.7*capacity {
		t.Errorf("above capacity completed %.0f ops/s, want near capacity %.0f", completedRate, capacity)
	}
	if loadAbove.BacklogPeak < loadAbove.Offered/10 {
		t.Errorf("backlog peak %d of %d offered: the over-capacity backlog should be a large fraction",
			loadAbove.BacklogPeak, loadAbove.Offered)
	}
	p99Below, p99Above := histBelow.Percentile(99), histAbove.Percentile(99)
	if p99Above < 50*p99Below {
		t.Errorf("open-loop p99 above capacity = %v, want ≫ below-capacity p99 %v (the knee)",
			sim.Time(p99Above), sim.Time(p99Below))
	}
	if p99Above < 100*closedP99 {
		t.Errorf("open-loop p99 %v vs closed-loop p99 %v: saturation must diverge by orders of magnitude",
			sim.Time(p99Above), sim.Time(closedP99))
	}
}

// TestOpenLoopDeterministic pins engine-level determinism: the same
// (workload, seed) produces bit-identical op counts, offered counts,
// and latency histograms, run to run — generator, worker pool, and
// idle-list wake-ups included.
func TestOpenLoopDeterministic(t *testing.T) {
	run := func() string {
		e, hist, _ := openLoopRun(t, OpenLoopRead(4<<20, 2048, 4, 6000), 53, 2*sim.Second)
		load := e.Load()
		histJSON, err := json.Marshal(hist)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("ops=%d bytes=%d off=%d done=%d peak=%d hist=%s",
			e.Counter().Ops, e.Counter().Bytes, load.Offered, load.Completed,
			load.BacklogPeak, histJSON)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed open-loop runs differ:\n%s\nvs\n%s", a, b)
	}
}

// TestOpenLoopUniformAndBurst covers the other two arrival kinds: a
// uniform process offers a deterministic count, and a burst process
// offers the same mean rate in Burst-sized clumps whose queueing
// pushes latency above the uniform process's at the same rate.
func TestOpenLoopUniformAndBurst(t *testing.T) {
	const dur = 2 * sim.Second
	const rate = 4000
	mk := func(kind ArrivalKind, burst int) *Workload {
		w := OpenLoopRead(4<<20, 2048, 1, rate)
		w.Threads[0].Arrival = Arrival{Kind: kind, Rate: rate, Burst: burst}
		return w
	}
	eU, histU, _ := openLoopRun(t, mk(ArrivalUniform, 0), 59, dur)
	// Uniform arrivals: exactly floor(rate*dur - epsilon) instances
	// land before `until` (first at from+1/rate).
	wantOffered := int64(rate*dur.Seconds()) - 1
	if got := eU.Load().Offered; got != wantOffered {
		t.Errorf("uniform offered %d, want exactly %d", got, wantOffered)
	}
	eB, histB, _ := openLoopRun(t, mk(ArrivalBurst, 32), 59, dur)
	offB := eB.Load().Offered
	if offB < wantOffered/2 || offB > wantOffered+32 {
		t.Errorf("burst offered %d, want ~%d (mean rate preserved)", offB, wantOffered)
	}
	if histB.Percentile(99) <= histU.Percentile(99) {
		t.Errorf("burst p99 %v not above uniform p99 %v at the same mean rate — bursts must queue",
			sim.Time(histB.Percentile(99)), sim.Time(histU.Percentile(99)))
	}
}

// TestOpenLoopSeqCursorIsClassOwned pins the sequential-stream
// semantics of an open loop: instances of one read-seq stream land on
// whichever worker is free, so the cursor must belong to the class —
// per-worker cursors would make every worker re-read offset 0.
func TestOpenLoopSeqCursorIsClassOwned(t *testing.T) {
	m := testMount(t, 16384)
	const fileSize = 1 << 20
	const ioSize = 4 << 10
	w := &Workload{
		Name: "olseq",
		FileSets: []FileSet{{
			Name: "d", Dir: "/d", Entries: 1, MeanSize: fileSize, PreallocFrac: 1,
		}},
		Threads: []ThreadSpec{{
			Name: "r", Count: 4, PerOpOverhead: DefaultPerOpOverhead,
			Arrival: Arrival{Kind: ArrivalUniform, Rate: 2000},
			Flowops: []Flowop{{Kind: OpReadSeq, FileSet: "d", IOSize: ioSize}},
		}},
	}
	e, err := NewEngine(m, w, 61)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	e.SetProbe(&Probe{Trace: func(_ int, _ OpKind, _ string, offset, _ int64, _, _ sim.Time) {
		offsets = append(offsets, offset)
	}})
	start, err := e.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(start, start+sim.Second); err != nil {
		t.Fatal(err)
	}
	perPass := fileSize / ioSize
	if len(offsets) < perPass {
		t.Fatalf("only %d seq reads, need at least one full pass (%d)", len(offsets), perPass)
	}
	// One class-owned stream: the first pass walks 0, 4k, 8k, ... with
	// no repeats, regardless of which worker served each instance.
	for i, off := range offsets[:perPass] {
		if want := int64(i) * ioSize; off != want {
			t.Fatalf("seq read %d at offset %d, want %d — cursor not class-owned?", i, off, want)
		}
	}
}

// TestOpenLoopValidation exercises the new spec checks.
func TestOpenLoopValidation(t *testing.T) {
	base := func() *Workload { return OpenLoopRead(1<<20, 2048, 2, 100) }
	if err := base().Validate(); err != nil {
		t.Fatalf("valid open-loop workload rejected: %v", err)
	}
	noRate := base()
	noRate.Threads[0].Arrival.Rate = 0
	if err := noRate.Validate(); err == nil {
		t.Error("open loop without rate validated")
	}
	badBurst := base()
	badBurst.Threads[0].Arrival = Arrival{Kind: ArrivalBurst, Rate: 100}
	if err := badBurst.Validate(); err == nil {
		t.Error("burst arrivals without burst size validated")
	}
	thinker := base()
	thinker.Threads[0].Flowops = append(thinker.Threads[0].Flowops,
		Flowop{Kind: OpThink, Think: sim.Millisecond})
	if err := thinker.Validate(); err == nil {
		t.Error("open loop with think flowop validated")
	}
	badKind := base()
	badKind.Threads[0].Arrival.Kind = ArrivalKind(42)
	if err := badKind.Validate(); err == nil {
		t.Error("unknown arrival kind validated")
	}
}

// TestArrivalKindRoundTrip mirrors the OpKind round-trip test.
func TestArrivalKindRoundTrip(t *testing.T) {
	for k := ArrivalClosed; k <= ArrivalBurst; k++ {
		parsed, err := ParseArrivalKind(k.String())
		if err != nil || parsed != k {
			t.Errorf("round trip failed for %v", k)
		}
	}
	if _, err := ParseArrivalKind("flarp"); err == nil {
		t.Error("ParseArrivalKind accepted garbage")
	}
}

// TestWDLOpenLoop pins the WDL surface for arrival processes,
// including the burst attribute the stock personalities don't cover.
func TestWDLOpenLoop(t *testing.T) {
	src := `
workload ol
fileset data dir=/data entries=1 size=4m prealloc=1.0
thread reader count=2 overhead=96us arrival=burst rate=250.5 burst=8 {
    read-rand fileset=data iosize=2k
}
`
	w, err := ParseWDL(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	a := w.Threads[0].Arrival
	if a.Kind != ArrivalBurst || a.Rate != 250.5 || a.Burst != 8 {
		t.Fatalf("parsed arrival = %+v", a)
	}
	text := FormatWDL(w)
	reparsed, err := ParseWDL(strings.NewReader(text))
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if FormatWDL(reparsed) != text {
		t.Errorf("WDL open-loop round trip unstable:\n%s\nvs\n%s", text, FormatWDL(reparsed))
	}
}
