package trace

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// ReplayMode selects the replayer's timing discipline — the first
// axis of the replay-trace taxonomy (timing faithfulness).
type ReplayMode int

// Replay modes.
const (
	// Timed dispatches each operation at its recorded offset from
	// trace start (open-loop replay): arrivals are not gated by
	// completions, so a system slower than the traced one builds a
	// backlog that shows up in the load gauge and in arrival-measured
	// latency.
	Timed ReplayMode = iota
	// AFAP replays as fast as possible (closed loop): each stream
	// issues its next operation when the previous completes. The load
	// gauge stays trivially satisfied — exactly the self-throttling
	// the paper warns about, kept as a discipline because it measures
	// peak absorbable throughput.
	AFAP
	// Scaled is Timed with inter-arrival gaps compressed by Scale:
	// ×N replays the same operation mix at N times the recorded
	// intensity, the load-scaling axis of the taxonomy.
	Scaled
)

// String names the mode the way the CLI and warehouse spell it.
func (m ReplayMode) String() string {
	switch m {
	case Timed:
		return "timed"
	case AFAP:
		return "afap"
	case Scaled:
		return "scaled"
	}
	return fmt.Sprintf("ReplayMode(%d)", int(m))
}

// ParseReplayMode resolves a CLI spelling.
func ParseReplayMode(s string) (ReplayMode, error) {
	switch s {
	case "timed":
		return Timed, nil
	case "afap":
		return AFAP, nil
	case "scaled":
		return Scaled, nil
	}
	return 0, fmt.Errorf("trace: unknown replay mode %q (want timed, afap, or scaled)", s)
}

// maxOpenFDs caps each stream's open file descriptors like a real
// process's rlimit: the least recently opened handle is closed when
// the table is full, so a replay never holds every file it touched
// open for its whole length.
const maxOpenFDs = 256

// EngineConfig describes one replay.
type EngineConfig struct {
	// Mode is the timing discipline.
	Mode ReplayMode
	// Scale compresses inter-arrival gaps in Scaled mode (×2 replays
	// at twice the recorded intensity). <= 0 means 1. Ignored by AFAP.
	Scale float64
	// Tenants are the traces to replay concurrently, each under its
	// own path prefix and owner range — the multi-tenant merge that
	// turns any captured trace into a fairness/contention scenario.
	// One tenant replays the trace as captured.
	Tenants []Source
}

// scale returns the effective time-compression factor.
func (c EngineConfig) scale() float64 {
	if c.Mode == Scaled && c.Scale > 0 {
		return c.Scale
	}
	return 1
}

// job is one dispatched record with its (scaled) arrival time.
type job struct {
	rec Record
	at  sim.Time
}

// stream is one replay worker: the records of one captured submission
// stream execute in order on it, while distinct streams contend on
// the device queue — the captured concurrency structure, preserved.
// In timed and scaled modes the tenant's dispatcher feeds it through
// its backlog, whose memory is bounded by the live backlog, not the
// record count.
type stream struct {
	id      int // captured stream id
	owner   int // global OwnerID across all tenants
	tn      *tenant
	now     sim.Time
	arrival sim.Time
	backlog sim.Backlog[job]
	fds     vfs.FDTable
}

// tenant is one merged trace with its own namespace and streams.
type tenant struct {
	src     Source
	prefix  string // "" single-tenant, "/tK" under merge
	scan    Scan
	streams []*stream
	byID    map[int]*stream
}

// Engine replays one or more traces against a mount on the event
// kernel. It satisfies core's per-run engine surface (Setup,
// DropCaches, SetProbe, Run, Load, Counter), so a trace slots into
// Experiment wherever a Workload would.
//
// Replay streams: each dispatcher reads its tenant's source through
// an Iterator, so memory stays O(streams + in-flight backlog), never
// O(records).
type Engine struct {
	m       *vfs.Mount
	cfg     EngineConfig
	tenants []*tenant
	workers int
	probe   *workload.Probe
	counter metrics.Counter
	load    metrics.LoadGauge
	errHist *metrics.Histogram
	maxLag  sim.Time
	runErr  error
}

// NewEngine prepares a replay. It pre-scans every tenant's trace
// (streams, span, digest) — one streaming pass per source.
func NewEngine(m *vfs.Mount, cfg EngineConfig) (*Engine, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("trace: replay needs at least one tenant source")
	}
	e := &Engine{m: m, cfg: cfg, errHist: &metrics.Histogram{}}
	owner := 0
	for k, src := range cfg.Tenants {
		sc, err := ScanSource(src)
		if err != nil {
			return nil, fmt.Errorf("trace: scanning tenant %d: %w", k, err)
		}
		tn := &tenant{src: src, scan: sc, byID: make(map[int]*stream)}
		if len(cfg.Tenants) > 1 {
			tn.prefix = fmt.Sprintf("/t%d", k)
		}
		for _, id := range sc.Streams {
			st := &stream{id: id, owner: owner, tn: tn, fds: vfs.NewFDTable(maxOpenFDs)}
			owner++
			tn.streams = append(tn.streams, st)
			tn.byID[id] = st
		}
		e.tenants = append(e.tenants, tn)
	}
	e.workers = owner
	return e, nil
}

// SetProbe installs the measurement probe.
func (e *Engine) SetProbe(p *workload.Probe) { e.probe = p }

// Counter reports op totals accumulated so far.
func (e *Engine) Counter() metrics.Counter { return e.counter }

// Load reports the offered/completed gauge. Timed and Scaled replays
// fill it (they are open loops); AFAP leaves it zero — a closed loop
// completes everything it offers by construction, which is precisely
// how it hides saturation.
func (e *Engine) Load() metrics.LoadGauge { return e.load }

// MaxLag is the worst service-start delay behind the (scaled)
// recorded schedule — how far the replayed system fell behind the
// traced one.
func (e *Engine) MaxLag() sim.Time { return e.maxLag }

// Records reports the total record count across tenants.
func (e *Engine) Records() int64 {
	var n int64
	for _, tn := range e.tenants {
		n += tn.scan.Records
	}
	return n
}

// Setup reconstructs the namespace the capture assumed: every path
// the trace references without first creating is pre-created, files
// sized to the largest extent the trace reads (Scan.Extents), so
// replayed reads perform the I/O the captured reads did instead of
// returning instantly from holes in empty lazily-created files. Paths
// the trace itself creates are left to the replay.
func (e *Engine) Setup(at sim.Time) (sim.Time, error) {
	now := at
	for _, tn := range e.tenants {
		for _, dir := range tn.scan.Dirs {
			// A directory that cannot be made is not fatal: the ops
			// under it fail, and replay accounts their errors.
			now, _ = e.m.MkdirAll(now, tn.prefix+dir)
		}
		paths := make([]string, 0, len(tn.scan.Extents))
		for p := range tn.scan.Extents {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			full := tn.prefix + p
			now = e.ensureParents(now, full)
			fd, done, err := e.m.Create(now, full)
			if err != nil {
				return now, fmt.Errorf("trace: setup %s: %w", full, err)
			}
			now = done
			if size := tn.scan.Extents[p]; size > 0 {
				done, err = e.m.Write(now, fd, 0, size)
				if err != nil {
					return now, fmt.Errorf("trace: setup %s: %w", full, err)
				}
				now = done
			}
			e.m.Close(fd)
		}
	}
	return e.m.SyncAll(now)
}

// DropCaches empties the page cache (cold-start replay).
func (e *Engine) DropCaches() { e.m.DropCaches() }

// Run replays from virtual time `from` until the trace is exhausted
// or the horizon `until` passes: dispatchers stop offering records
// scheduled at or beyond it and workers abandon their remaining
// backlog, which the load gauge then reports as offered-but-not-
// completed. The run executes on a discrete-event loop — one proc
// per stream plus one dispatcher per tenant in timed/scaled modes —
// so results are bit-identical at any host parallelism.
func (e *Engine) Run(from, until sim.Time) (sim.Time, error) {
	// Iterators open before the run enters event mode, so an open
	// error returns before any process, the write-back daemon
	// included, exists. AFAP gives each stream its own filtered
	// iterator, timed/scaled one shared iterator per tenant dispatcher.
	open := e.cfg.Mode != AFAP
	var iters []Iterator
	closeIters := func() {
		for _, it := range iters {
			it.Close()
		}
	}
	for _, tn := range e.tenants {
		n := len(tn.streams)
		if open {
			n = 1
		}
		for i := 0; i < n; i++ {
			it, err := tn.src.Open()
			if err != nil {
				closeIters()
				return from, err
			}
			iters = append(iters, it)
		}
	}
	defer closeIters()
	loop := sim.NewEventLoop(from)
	if err := e.m.BeginEvents(loop); err != nil {
		return from, err
	}
	e.runErr = nil
	procs := e.workers
	if open {
		procs += len(e.tenants)
	}
	loop.Reserve(procs + 16)
	// Workers spawn before dispatchers so every stream is parked on
	// its backlog before the first arrival fires.
	next := 0
	for _, tn := range e.tenants {
		for _, st := range tn.streams {
			st.now = from
			if open {
				e.m.Go(func(p *sim.Proc) { e.streamWorker(p, st, until) })
				continue
			}
			it := iters[next]
			next++
			e.m.Go(func(p *sim.Proc) { e.afapWorker(p, st, it, until) })
		}
	}
	if open {
		for k, tn := range e.tenants {
			it := iters[k]
			e.m.Go(func(p *sim.Proc) { e.dispatch(p, tn, it, from, until) })
		}
	}
	loop.Run()
	e.m.EndEvents()
	var end sim.Time
	for _, tn := range e.tenants {
		for _, st := range tn.streams {
			if st.now > end {
				end = st.now
			}
		}
	}
	return end, e.runErr
}

// dispatch is a tenant's arrival process in timed/scaled modes: it
// streams records off the source, waits until each record's (scaled)
// submission time, and hands it to its stream's worker — never
// waiting for service completions, so offered load is faithful to the
// recording regardless of how the replayed system keeps up.
func (e *Engine) dispatch(p *sim.Proc, tn *tenant, it Iterator, from, until sim.Time) {
	defer func() {
		for _, st := range tn.streams {
			st.backlog.Close()
		}
	}()
	scale := e.cfg.scale()
	for e.runErr == nil {
		rec, err := it.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			e.runErr = err
			return
		}
		sched := from + sim.Time(float64(rec.At)/scale)
		if sched >= until {
			// Past the horizon: this record (and, in a time-ordered
			// trace, every later one) is never offered.
			continue
		}
		p.WaitUntil(sched)
		st, ok := tn.byID[rec.Stream]
		if !ok {
			e.runErr = fmt.Errorf("trace: record references unscanned stream %d", rec.Stream)
			return
		}
		e.load.Arrive()
		st.backlog.Push(job{rec: rec, at: sched})
	}
}

// streamWorker executes one stream's dispatched records in order
// (timed/scaled modes), parking when its backlog drains. Latency is
// measured from the record's scheduled arrival, so time spent queued
// behind a slow device is part of the recorded latency — the open-
// loop signature.
func (e *Engine) streamWorker(p *sim.Proc, st *stream, until sim.Time) {
	for e.runErr == nil {
		var ok bool
		if st.now, ok = st.backlog.Wait(p, st.now); !ok || e.runErr != nil {
			return
		}
		if st.now >= until {
			// Abandon the backlog: the load gauge reports it as
			// offered minus completed.
			return
		}
		j := st.backlog.Pop()
		if j.at > st.now {
			st.now = j.at
		}
		p.WaitUntil(st.now)
		e.m.SetProc(p, st.owner+1)
		st.arrival = j.at
		if lag := st.now - j.at; lag > e.maxLag {
			e.maxLag = lag
		}
		if err := e.exec(st, j.rec); err != nil {
			if e.runErr == nil {
				e.runErr = err
			}
			return
		}
		e.load.Complete()
	}
}

// afapWorker replays one stream closed-loop: it filters the tenant's
// record sequence down to its own stream and issues each operation
// when the previous completes.
func (e *Engine) afapWorker(p *sim.Proc, st *stream, it Iterator, until sim.Time) {
	for st.now < until && e.runErr == nil {
		rec, err := it.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			if e.runErr == nil {
				e.runErr = err
			}
			return
		}
		if rec.Stream != st.id {
			continue
		}
		p.WaitUntil(st.now)
		e.m.SetProc(p, st.owner+1)
		st.arrival = st.now
		if err := e.exec(st, rec); err != nil {
			if e.runErr == nil {
				e.runErr = err
			}
			return
		}
	}
}

// ensureParents recreates missing parent directories: traces
// reference a namespace that existed on the traced system, not on
// this one. A directory that cannot be made is not fatal: the op that
// needs it fails and is accounted as an error.
func (e *Engine) ensureParents(at sim.Time, path string) sim.Time {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		at, _ = e.m.MkdirAll(at, path[:i])
	}
	return at
}

// openOrCreate returns the stream's handle for path, opening or (for
// paths that predate the capture) creating it on first touch.
func (e *Engine) openOrCreate(st *stream, at sim.Time, path string) (*vfs.FD, sim.Time, error) {
	if fd, ok := st.fds.Get(path); ok {
		return fd, at, nil
	}
	fd, done, err := e.m.Open(at, path)
	if errors.Is(err, fs.ErrNotExist) {
		at = e.ensureParents(at, path)
		fd, done, err = e.m.Create(at, path)
	}
	if err != nil {
		return nil, at, err
	}
	st.fds.Add(path, fd)
	return fd, done, nil
}

// exec replays one record on its stream. Benign errors (a stat on a
// path the capture deleted, a read racing the trace's own unlink) are
// counted and histogrammed, advancing the clock to the actual failure
// return; only an unreplayable record kind is fatal.
func (e *Engine) exec(st *stream, rec Record) error {
	issue := st.now
	path := st.tn.prefix + rec.Path
	var done sim.Time
	var err error
	var moved int64
	switch rec.Kind {
	case workload.OpReadRand, workload.OpReadSeq, workload.OpReadWholeFile:
		var fd *vfs.FD
		fd, issue, err = e.openOrCreate(st, issue, path)
		if err == nil {
			moved, done, err = e.m.Read(issue, fd, rec.Offset, rec.Size)
		}
	case workload.OpWriteRand, workload.OpWriteSeq, workload.OpAppend:
		var fd *vfs.FD
		fd, issue, err = e.openOrCreate(st, issue, path)
		if err == nil {
			done, err = e.m.Write(issue, fd, rec.Offset, rec.Size)
			if err == nil {
				moved = rec.Size
			}
		}
	case workload.OpCreate:
		issue = e.ensureParents(issue, path)
		var fd *vfs.FD
		fd, done, err = e.m.Create(issue, path)
		if err == nil {
			st.fds.Add(path, fd)
		}
	case workload.OpDelete:
		// Every stream in the tenant must release its handle: the
		// file is gone for the whole namespace, and the old replayer's
		// silent map-drop leaked the descriptor.
		for _, s := range st.tn.streams {
			s.fds.Close(path)
		}
		done, err = e.m.Unlink(issue, path)
	case workload.OpStat:
		_, done, err = e.m.Stat(issue, path)
	case workload.OpFsync:
		fd, ok := st.fds.Get(path)
		if !ok {
			fd, issue, err = e.openOrCreate(st, issue, path)
		}
		if err == nil && fd != nil {
			done, err = e.m.Fsync(issue, fd)
		}
	case workload.OpMkdir:
		done, err = e.m.Mkdir(issue, path)
	case workload.OpReadDir:
		_, done, err = e.m.ReadDir(issue, path)
	case workload.OpOpen:
		_, done, err = e.openOrCreate(st, issue, path)
		if done < issue {
			done = issue
		}
	case workload.OpClose:
		// Honor the capture: close the named handle if the stream
		// holds it (the old replayer ignored Close entirely).
		st.fds.Close(path)
		done = issue
	case workload.OpThink:
		done = issue
	default:
		return fmt.Errorf("trace: unreplayable record kind %v", rec.Kind)
	}
	if err != nil {
		// Errored ops are accounted, not vanished: the clock advances
		// to the failure return (vfs ops report how far they got) and
		// the arrival-to-failure latency lands in the error histogram.
		e.counter.Errors++
		fail := done
		if fail < issue {
			fail = issue
		}
		e.errHist.Record(fail - st.arrival)
		st.now = fail
		return nil
	}
	if done < issue {
		done = issue
	}
	e.counter.Ops++
	e.counter.Bytes += moved
	e.probe.Observe(st.owner, rec.Kind, path, rec.Offset, moved, st.arrival, done)
	st.now = done
	return nil
}
