package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// engine is the per-run surface the workload, sharded and replay
// engines share.
type engine interface {
	Setup(at sim.Time) (sim.Time, error)
	DropCaches()
	SetProbe(p *workload.Probe)
	Run(from, until sim.Time) (sim.Time, error)
	Counter() metrics.Counter
	Load() metrics.LoadGauge
}

// replayHorizon lets a replay run until its trace is exhausted.
const replayHorizon = sim.Time(1) << 62

// model holds one repetition's modelled (virtual-time) results. Equal
// inputs must give equal models, traced or not; the digest compares
// them.
type model struct {
	Start, End    sim.Time
	Counter       metrics.Counter
	ProbeOps      int64
	P50, P99, Max int64
	VFS           vfs.Stats
	L1            cache.Stats
	L1Start       int
	L1End         int
	Dev           device.Stats
	// The device-queue accounting of a workload engine. A replay
	// engine does not expose it, and HasQueue stays false.
	HasQueue                                 bool
	Submitted, Completed, QErrors, MaxQueued int64
	QueueWait                                sim.Time
	// Load is the open-loop offered/completed gauge.
	Load metrics.LoadGauge
	// Records and MaxLag describe a replay.
	Records int64
	MaxLag  sim.Time
}

// digest fingerprints the modelled results.
func (m *model) digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *m)
	return fmt.Sprintf("%016x", h.Sum64())
}

// simOpsPerVirtualSec is the modelled throughput.
func (m *model) simOpsPerVirtualSec() float64 {
	if d := (m.End - m.Start).Seconds(); d > 0 {
		return float64(m.Counter.Ops) / d
	}
	return 0
}

// check returns the accounting identities the modelled results break.
func (m *model) check() []string {
	var bad []string
	if m.Counter.Ops <= 0 || m.End <= m.Start {
		bad = append(bad, fmt.Sprintf("no progress: %d ops in [%v, %v]", m.Counter.Ops, m.Start, m.End))
	}
	if m.ProbeOps != m.Counter.Ops {
		bad = append(bad, fmt.Sprintf("probe saw %d completed ops, engine counted %d", m.ProbeOps, m.Counter.Ops))
	}
	if m.HasQueue {
		if devOps := m.Dev.Reads + m.Dev.Writes; m.Submitted != m.Completed || m.Completed != devOps {
			bad = append(bad, fmt.Sprintf("queue submitted %d, completed %d, device served %d",
				m.Submitted, m.Completed, devOps))
		}
	}
	if want := int64(m.L1Start) + m.L1.Inserts - m.L1.Evictions - m.L1.Invalidations; int64(m.L1End) != want {
		bad = append(bad, fmt.Sprintf("L1 holds %d pages, start %d + inserts %d - evictions %d - invalidations %d = %d",
			m.L1End, m.L1Start, m.L1.Inserts, m.L1.Evictions, m.L1.Invalidations, want))
	}
	if m.Records > 0 && m.Counter.Ops+m.Counter.Errors != m.Records {
		bad = append(bad, fmt.Sprintf("replayed %d ops + %d errors of %d records",
			m.Counter.Ops, m.Counter.Errors, m.Records))
	}
	return bad
}

// rep is one repetition: a fresh stack, set up and run once.
type rep struct {
	traced bool
	// Host time: the whole repetition, its set-up (trace generation,
	// Build, engine construction and Setup), and parts of it.
	wall, setup, build, engineSetup, run time.Duration
	// cpu is the process's user and system CPU time over the
	// repetition, every goroutine and the collector included.
	cpu      time.Duration
	alloc    uint64 // bytes allocated
	gcCycles uint32
	gcPause  time.Duration
	model    model
	digest   string
	bad      []string // broken identities
	// Traced repetitions only.
	seams   []*mountSeams
	src     *sourceTimer
	profile []byte
}

// runRep sets up and runs sp once on inputs derived from seed. A
// traced repetition swaps timing wrappers into every seam before
// set-up and records a CPU profile of the whole repetition.
func runRep(sp *spec, seed uint64, traced bool) (*rep, error) {
	r := &rep{traced: traced}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	eng, mounts, start, err := r.setUp(sp, seed)
	if err != nil {
		if traced {
			pprof.StopCPUProfile()
		}
		return nil, err
	}
	hist := &metrics.Histogram{}
	eng.SetProbe(&workload.Probe{Hist: hist})
	until := start + sp.duration
	if sp.replay != nil {
		until = replayHorizon
	}
	t0 := time.Now()
	end, err := eng.Run(start, until)
	r.run = time.Since(t0)
	r.wall = r.setup + r.run
	r.cpu = processCPU() - cpu0
	if traced {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", sp.name, err)
	}
	runtime.ReadMemStats(&ms1)
	r.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)

	m := &r.model
	m.Start, m.End = start, end
	m.Counter = eng.Counter()
	m.ProbeOps = hist.Count()
	m.P50, m.P99, m.Max = hist.Percentile(50), hist.Percentile(99), hist.Max()
	for _, mt := range mounts {
		addCounts(&m.VFS, mt.Stats())
		addCounts(&m.L1, mt.PC.L1.Stats())
		addCounts(&m.Dev, mt.Dev.Stats())
		m.L1End += mt.PC.L1.Len()
	}
	if q, ok := eng.(interface{ QueueStats() device.QueueStats }); ok {
		qs := q.QueueStats()
		m.HasQueue = true
		m.Submitted, m.Completed, m.QErrors = qs.Submitted, qs.Completed, qs.Errors
		m.MaxQueued, m.QueueWait = int64(qs.MaxQueued), qs.Wait
	}
	if te, ok := eng.(*trace.Engine); ok {
		m.Records, m.MaxLag = te.Records(), te.MaxLag()
	}
	m.Load = eng.Load()
	r.bad = m.check()
	if r.src != nil && r.src.records != 2*m.Records {
		r.bad = append(r.bad, fmt.Sprintf("decoded %d records, want the pre-scan and the replay pass of %d",
			r.src.records, m.Records))
	}
	r.digest = m.digest()
	return r, nil
}

// setUp generates the inputs, builds the stack, wraps its seams when
// traced, and sets the engine up: everything setup_s times. It returns
// the engine ready to run from the returned virtual time.
func (r *rep) setUp(sp *spec, seed uint64) (engine, []*vfs.Mount, sim.Time, error) {
	t0 := time.Now()
	var src trace.Source
	if sp.replay != nil {
		b, err := genTrace(seed, sp.replay)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: generate trace: %w", sp.name, err)
		}
		src = bytesSource(b)
	}
	tb := time.Now()
	rng := sim.NewRNG(seed)
	var mounts []*vfs.Mount
	if sp.shards > 1 {
		for i := 0; i < sp.shards; i++ {
			m, err := sp.stack.Build(rng.Split())
			if err != nil {
				return nil, nil, 0, fmt.Errorf("%s: build: %w", sp.name, err)
			}
			mounts = append(mounts, m)
		}
	} else {
		m, err := sp.stack.Build(rng)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: build: %w", sp.name, err)
		}
		mounts = []*vfs.Mount{m}
	}
	r.build = time.Since(tb)
	if r.traced {
		for _, m := range mounts {
			r.seams = append(r.seams, instrument(m))
		}
		if src != nil {
			r.src = &sourceTimer{src: src}
			src = r.src
		}
	}
	te := time.Now()
	var eng engine
	var err error
	switch {
	case src != nil:
		eng, err = trace.NewEngine(mounts[0], trace.EngineConfig{Mode: trace.Timed, Tenants: []trace.Source{src}})
	case sp.shards > 1:
		eng, err = workload.NewShardedEngine(mounts, sp.load, rng.Uint64())
	default:
		eng, err = workload.NewEngine(mounts[0], sp.load, rng.Uint64())
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: new engine: %w", sp.name, err)
	}
	start, err := eng.Setup(0)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: setup: %w", sp.name, err)
	}
	r.engineSetup = time.Since(te)
	r.setup = time.Since(t0)
	if sp.cold {
		eng.DropCaches()
	}
	for _, m := range mounts {
		m.ResetStats()
		r.model.L1Start += m.PC.L1.Len()
	}
	return eng, mounts, start, nil
}

// addCounts adds every integer field of src into *dst, two values of
// the same stats struct: a sharded run's per-mount statistics fold into
// one. High-water marks add up too, which the digest does not mind.
func addCounts[T any](dst *T, src T) {
	d, v := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		if f := d.Field(i); f.CanInt() {
			f.SetInt(f.Int() + v.Field(i).Int())
		}
	}
}

// processCPU returns the user and system CPU time this process has
// used so far. It only feeds the progress log, so a failed query
// reads as zero.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
