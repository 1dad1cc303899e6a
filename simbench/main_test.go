package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

// TestSeamsTransparent runs a tiny version of every workload, NVMe
// ones included, untraced and traced, and requires identical modelled
// results, intact accounting identities and no failed operation.
func TestSeamsTransparent(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			sp, err := lookup(name, true)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := runRep(sp, 7, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRep(sp, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*rep{plain, traced} {
				if len(r.bad) > 0 {
					t.Errorf("traced=%v: %v", r.traced, r.bad)
				}
				if n := r.model.Counter.Errors; n != 0 {
					t.Errorf("traced=%v: %d failed operations", r.traced, n)
				}
			}
			if plain.digest != traced.digest {
				t.Errorf("traced digest %s != untraced %s\nuntraced %+v\ntraced   %+v",
					traced.digest, plain.digest, plain.model, traced.model)
			}
			tot := traced.totals()
			if sumSpans(tot.fs[:]).calls == 0 || sumSpans(tot.policy[:]).calls == 0 || tot.dev.calls == 0 {
				t.Errorf("a seam saw no calls: %+v", tot)
			}
			if (sp.replay != nil) != (tot.records > 0) {
				t.Errorf("replay=%v but %d records decoded", sp.replay != nil, tot.records)
			}
		})
	}
}

// TestSeedDeterminesInputs checks that the seed alone fixes a
// workload's inputs and hence its modelled results.
func TestSeedDeterminesInputs(t *testing.T) {
	sp, err := lookup("replay", true)
	if err != nil {
		t.Fatal(err)
	}
	a, err := genTrace(1, sp.replay)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genTrace(1, sp.replay)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genTrace(2, sp.replay)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Errorf("trace bytes: seed 1 twice equal=%v, seeds 1 and 2 equal=%v", bytes.Equal(a, b), bytes.Equal(a, c))
	}
	fs, err := lookup("fileserver", true)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := runRep(fs, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runRep(fs, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if r1.digest == r2.digest {
		t.Errorf("seeds 1 and 2 gave the same modelled results %s", r1.digest)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestPrintedMetrics checks the result line of a tiny untraced and a
// tiny traced run: each metric has a well-formed name and a unit, and
// the names and units are exactly those BENCHMARK.json declares, as
// are the workloads.
func TestPrintedMetrics(t *testing.T) {
	spec := readBenchmarkJSON(t)
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !slices.Equal(workloads, workloadNames) {
		t.Errorf("workloads %v, BENCHMARK.json %v", workloadNames, workloads)
	}
	sp, err := lookup("fileserver", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		traced bool
		want   []benchMetric
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		res, err := measure(sp, 3, 0, tc.traced, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct           bool
			Attempted, Failed int64
			Metrics           map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", tc.traced, got.Correct, got.Attempted, got.Failed)
		}
		var names []string
		for name, m := range got.Metrics {
			names = append(names, name)
			if !metricName.MatchString(name) || m.Unit == "" || m.Value == nil {
				t.Errorf("traced=%v: metric %q unit %q value %v", tc.traced, name, m.Unit, m.Value)
			}
		}
		var want []string
		for _, m := range tc.want {
			want = append(want, m.Name)
			if got.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Metrics[m.Name].Unit, m.Unit)
			}
		}
		slices.Sort(names)
		slices.Sort(want)
		if !slices.Equal(names, want) {
			t.Errorf("traced=%v: printed %v, BENCHMARK.json declares %v", tc.traced, names, want)
		}
	}
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "repro/internal/cache.(*Cache).Lookup",
			"repro/internal/vfs.(*Mount).readPage"}, "cache"},
		{[]string{"repro/internal/fs.(*BitmapAlloc).Alloc", "repro/internal/fs/ext2sim.(*FS).Resize"}, "fs"},
		{[]string{"repro/internal/fs/ext2sim.(*FS).Map", "main.(*fsTimer).Map", "repro/internal/vfs.(*Mount).Read"}, "fs"},
		{[]string{"time.now", "main.(*fsTimer).Map", "repro/internal/vfs.(*Mount).Read"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/sim.(*EventLoop).Go"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime_sched"},
		{[]string{"runtime.chansend", "repro/internal/sim.(*Proc).Park"}, "sim"},
		{[]string{"repro/internal/metrics.(*Histogram).Record", "repro/internal/workload.(*Engine).execOp"}, "other"},
		{[]string{"compress/flate.(*compressor).deflate", "runtime/pprof.profileWriter"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(until time.Time) int {
	n := 0
	for time.Now().Before(until) {
		n++
	}
	return n
}

// TestFoldProfile folds a real CPU profile of this process.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	folded, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for layer, ns := range folded {
		if !slices.Contains(cpuLayers, layer) {
			t.Errorf("sample folded into unknown layer %q", layer)
		}
		total += ns
	}
	if total == 0 || folded["other"] == 0 {
		t.Errorf("folded %v: want the spin loop's samples under other", folded)
	}
}
