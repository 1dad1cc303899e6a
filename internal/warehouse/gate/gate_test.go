package gate

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

// synthSet builds a one-record run-set with the given per-run
// throughputs, latencies (one op per run), and hit ratios.
func synthSet(fp string, tputs, latNs, hits []float64) warehouse.Set {
	rec := warehouse.Record{
		Schema:      warehouse.SchemaVersion,
		Fingerprint: fp,
		Name:        "synth",
		Runs:        len(tputs),
	}
	for i := range tputs {
		rr := warehouse.RunRecord{
			Throughput: tputs[i],
			HitRatio:   hits[i],
			Hist:       histOf(sim.Time(latNs[i])),
		}
		rec.PerRun = append(rec.PerRun, rr)
	}
	return warehouse.Set{rec}
}

func histOf(ds ...sim.Time) *metrics.Histogram {
	h := &metrics.Histogram{}
	for _, d := range ds {
		h.Record(d)
	}
	return h
}

func verdictOf(t *testing.T, rep Report, metric string) Verdict {
	t.Helper()
	for _, m := range rep.Metrics {
		if m.Metric == metric {
			return m.Verdict
		}
	}
	t.Fatalf("metric %q missing from report:\n%s", metric, rep)
	return Indistinguishable
}

func TestIdenticalSamplesIndistinguishable(t *testing.T) {
	tput := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1}
	lat := []float64{1e5, 1.1e5, 0.9e5, 1e5, 1.05e5, 0.95e5, 1e5, 1e5}
	hit := []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}
	rep := Compare(synthSet("fp", tput, lat, hit), synthSet("fp", tput, lat, hit), Config{})
	for _, m := range rep.Metrics {
		if m.Verdict != Indistinguishable {
			t.Errorf("%s: identical samples judged %s\n%s", m.Metric, m.Verdict, rep)
		}
	}
	if !rep.FingerprintMatch {
		t.Error("matching fingerprints not recognized")
	}
}

func TestClearRegressionFlagged(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1}
	worse := make([]float64, len(base))
	for i, v := range base {
		worse[i] = v * 0.8 // 20% throughput loss
	}
	lat := []float64{1e5, 1.1e5, 0.9e5, 1e5, 1.05e5, 0.95e5, 1e5, 1.02e5}
	latWorse := make([]float64, len(lat))
	for i, v := range lat {
		latWorse[i] = v * 1.25
	}
	hit := []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}
	rep := Compare(synthSet("fp", base, lat, hit), synthSet("fp", worse, latWorse, hit), Config{})
	if v := verdictOf(t, rep, "ops/sec"); v != Regressed {
		t.Errorf("ops/sec = %s, want regressed\n%s", v, rep)
	}
	if v := verdictOf(t, rep, "lat mean ns"); v != Regressed {
		t.Errorf("lat mean = %s, want regressed\n%s", v, rep)
	}
	if v := verdictOf(t, rep, "hit ratio"); v != Indistinguishable {
		t.Errorf("hit ratio = %s, want indistinguishable\n%s", v, rep)
	}
	if len(rep.Regressions()) == 0 {
		t.Error("Regressions() empty despite regressed metrics")
	}
}

func TestImprovementFlagged(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1}
	better := make([]float64, len(base))
	for i, v := range base {
		better[i] = v * 1.2
	}
	lat := []float64{1e5, 1.1e5, 0.9e5, 1e5, 1.05e5, 0.95e5, 1e5, 1.02e5}
	hit := []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}
	rep := Compare(synthSet("fp", base, lat, hit), synthSet("fp", better, lat, hit), Config{})
	if v := verdictOf(t, rep, "ops/sec"); v != Improved {
		t.Errorf("ops/sec = %s, want improved\n%s", v, rep)
	}
	improved := 0
	for _, m := range rep.Metrics {
		if m.Verdict == Improved {
			improved++
		}
	}
	if improved != 1 {
		t.Errorf("%d metrics improved, want 1\n%s", improved, rep)
	}
}

func TestMinEffectFloor(t *testing.T) {
	// A real but tiny (0.1%) shift with near-zero variance: clearly
	// significant statistically, suppressed by the effect floor.
	base := []float64{1000.0, 1000.1, 999.9, 1000.05, 999.95, 1000.02, 999.98, 1000.01}
	shifted := make([]float64, len(base))
	for i, v := range base {
		shifted[i] = v * 0.999
	}
	lat := []float64{1e5, 1e5, 1e5, 1e5, 1e5, 1e5, 1e5, 1e5}
	hit := []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}
	rep := Compare(synthSet("fp", base, lat, hit), synthSet("fp", shifted, lat, hit), Config{})
	if v := verdictOf(t, rep, "ops/sec"); v != Indistinguishable {
		t.Errorf("0.1%% shift judged %s despite MinEffect floor\n%s", v, rep)
	}
	// Lowering the floor lets the same evidence through.
	rep = Compare(synthSet("fp", base, lat, hit), synthSet("fp", shifted, lat, hit),
		Config{MinEffect: 0.0005})
	if v := verdictOf(t, rep, "ops/sec"); v != Regressed {
		t.Errorf("0.1%% shift = %s with floor lowered\n%s", v, rep)
	}
}

func TestMinRunsSuppressesSmallSamples(t *testing.T) {
	base := []float64{100, 101, 100.5}
	worse := []float64{80, 81, 80.5}
	lat := []float64{1e5, 1e5, 1e5}
	hit := []float64{0.9, 0.9, 0.9}
	rep := Compare(synthSet("fp", base, lat, hit), synthSet("fp", worse, lat, hit), Config{})
	if v := verdictOf(t, rep, "ops/sec"); v != Indistinguishable {
		t.Errorf("n=3 sample judged %s, want indistinguishable under MinRuns\n%s", v, rep)
	}
}

func TestHolmThresholds(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1}
	worse := make([]float64, len(base))
	for i, v := range base {
		worse[i] = v * 0.8
	}
	lat := []float64{1e5, 1.1e5, 0.9e5, 1e5, 1.05e5, 0.95e5, 1e5, 1.02e5}
	hit := []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}
	rep := Compare(synthSet("fp", base, lat, hit), synthSet("fp", worse, lat, hit), Config{})
	// The smallest p must have been tested at alpha/m, the family's
	// strictest threshold.
	strictest := rep.Alpha / float64(len(rep.Metrics))
	found := false
	for _, m := range rep.Metrics {
		if m.HolmAlpha == strictest {
			found = true
		}
		if m.HolmAlpha < strictest || m.HolmAlpha > rep.Alpha {
			t.Errorf("%s: holm threshold %g outside [alpha/m, alpha]", m.Metric, m.HolmAlpha)
		}
	}
	if !found {
		t.Errorf("no metric tested at the strictest threshold %g\n%s", strictest, rep)
	}
}

func TestFingerprintMismatchNoted(t *testing.T) {
	tput := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1}
	lat := []float64{1e5, 1e5, 1e5, 1e5, 1e5, 1e5, 1e5, 1e5}
	hit := []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}
	rep := Compare(synthSet("fpA", tput, lat, hit), synthSet("fpB", tput, lat, hit), Config{})
	if rep.FingerprintMatch {
		t.Error("differing fingerprints reported as matching")
	}
	if !strings.Contains(rep.String(), "fingerprints differ") {
		t.Errorf("report does not surface the mismatch:\n%s", rep)
	}
}

// --- end-to-end acceptance ---

// gateRuns is the per-side sample size the gate's CI replay uses.
// Power analysis at alpha 0.01 over a 5-metric closed-loop family:
// Holm's strictest threshold is 0.01/5 = 0.002, and Mann-Whitney's
// smallest two-sided p at n vs n is ~0.0039 for n=6 but ~0.00078 for
// n=8 — so 8 runs is the floor at which a real shift can be flagged.
const gateRuns = 8

func gateStack() core.StackConfig {
	return core.StackConfig{
		FS: "ext2", Device: "hdd", DiskBytes: 1 << 30,
		RAMBytes: 64 << 20, OSReserveBytes: 13 << 20, OSReserveJitter: 1 << 20,
		CachePolicy: "lru", CPUNoiseFrac: 0.01,
	}
}

// runSet runs one experiment with a warehouse attached and returns
// its archived run-set.
func runSet(t *testing.T, stack core.StackConfig, w *workload.Workload, seed uint64) warehouse.Set {
	t.Helper()
	st, err := warehouse.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := &core.Experiment{
		Name:          "gate-e2e",
		Stack:         stack,
		Workload:      w,
		Runs:          gateRuns,
		Duration:      600 * sim.Millisecond,
		MeasureWindow: 400 * sim.Millisecond,
		Seed:          seed,
	}
	e.Recorder = st
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	set, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// cachedRead is a memory-bound workload: the file fits in cache, so
// run time is dominated by the software per-op overhead — the knob
// the slowdown test turns.
func cachedRead() *workload.Workload {
	return workload.RandomRead(8<<20, 4<<10, 1)
}

// slowedRead is cachedRead with its per-op software cost raised 25% —
// the injected regression (~20% throughput loss).
func slowedRead() *workload.Workload {
	w := cachedRead()
	for i := range w.Threads {
		w.Threads[i].PerOpOverhead = w.Threads[i].PerOpOverhead * 5 / 4
	}
	return w
}

// slowedStack raises the VFS per-op costs 25% — the half of the
// injected regression visible in op latency (the thread's per-op
// overhead is think time between ops, outside the measured latency).
func slowedStack() core.StackConfig {
	s := gateStack()
	cfg := vfs.DefaultConfig()
	cfg.SyscallOverhead = cfg.SyscallOverhead * 5 / 4
	cfg.HitPerPage = cfg.HitPerPage * 5 / 4
	s.VFS = &cfg
	return s
}

// TestGateFlagsInjectedSlowdown is the acceptance test: a ~20%
// injected slowdown must be flagged at alpha 0.01 on exactly the
// affected metrics.
func TestGateFlagsInjectedSlowdown(t *testing.T) {
	baseline := runSet(t, gateStack(), cachedRead(), 101)
	candidate := runSet(t, slowedStack(), slowedRead(), 202)
	rep := Compare(baseline, candidate, Config{Alpha: 0.01})

	if v := verdictOf(t, rep, "ops/sec"); v != Regressed {
		t.Errorf("ops/sec = %s, want regressed\n%s", v, rep)
	}
	if v := verdictOf(t, rep, "lat mean ns"); v != Regressed {
		t.Errorf("lat mean = %s, want regressed\n%s", v, rep)
	}
	// The percentiles are log2-bucket quantized: a 25% shift may or
	// may not cross a bucket edge, but it must never look improved.
	for _, metric := range []string{"lat p50 ns", "lat p99 ns"} {
		if v := verdictOf(t, rep, metric); v == Improved {
			t.Errorf("%s = improved under a slowdown\n%s", metric, rep)
		}
	}
	// The slowdown touches software cost only; cache behavior is
	// untouched.
	if v := verdictOf(t, rep, "hit ratio"); v != Indistinguishable {
		t.Errorf("hit ratio = %s, want indistinguishable\n%s", v, rep)
	}
}

// TestGateNoFalsePositiveAcrossMatrix re-runs identical configs at a
// different seed across the determinism-matrix stacks: nothing may be
// flagged in either direction.
func TestGateNoFalsePositiveAcrossMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix replay is not short")
	}
	matrix := []struct {
		name  string
		stack core.StackConfig
	}{
		{"hdd-elevator-lru", gateStack()},
		{"nvme-ncq-lru", func() core.StackConfig {
			s := gateStack()
			s.Device, s.Scheduler = "nvme", "ncq"
			return s
		}()},
		{"hdd-cfq-arc", func() core.StackConfig {
			s := gateStack()
			s.Scheduler, s.CachePolicy = "cfq", "arc"
			return s
		}()},
		{"ssd-fcfs-clock", func() core.StackConfig {
			s := gateStack()
			s.Device, s.Scheduler, s.CachePolicy = "ssd", "fcfs", "clock"
			return s
		}()},
	}
	for _, cfg := range matrix {
		t.Run(cfg.name, func(t *testing.T) {
			baseline := runSet(t, cfg.stack, cachedRead(), 101)
			rerun := runSet(t, cfg.stack, cachedRead(), 202)
			rep := Compare(baseline, rerun, Config{Alpha: 0.01})
			if !rep.FingerprintMatch {
				t.Errorf("identical config produced differing fingerprints\n%s", rep)
			}
			for _, m := range rep.Metrics {
				if m.Verdict != Indistinguishable {
					t.Errorf("%s: seed change judged %s\n%s", m.Metric, m.Verdict, rep)
				}
			}
		})
	}
}
