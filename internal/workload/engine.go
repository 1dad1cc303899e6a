package workload

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Probe receives per-operation measurements. Any field may be nil.
// Latency excludes the tool's PerOpOverhead — it is the file-system
// call the paper's histograms show, not the benchmark loop around it.
type Probe struct {
	Series   *metrics.TimeSeries        // op completion counts over time
	Hist     *metrics.Histogram         // op latency distribution
	Timeline *metrics.HistogramTimeline // latency histograms over time
	// PerOwner, when non-nil, receives each operation keyed by the
	// issuing thread's OwnerID — per-thread op counts and latency
	// histograms, the fairness view. It honors Kinds and HistSince
	// like Hist.
	PerOwner *metrics.PerOwner
	// HistSince limits Hist recording to operations completing at or
	// after this virtual time (the paper's "report only the last
	// minute" steady-state protocol).
	HistSince sim.Time
	// Kinds limits recording to the given op kinds (nil = all).
	Kinds map[OpKind]bool
	// Trace, when non-nil, receives every operation with its issuing
	// owner, target, and byte range — the hook the trace recorder
	// attaches to. The owner rides along so captured traces carry the
	// requester identity replay needs for per-stream contention.
	Trace func(owner int, kind OpKind, path string, offset, size int64, start, done sim.Time)
}

// Observe records one completed operation — the entry point external
// engines (trace replay) share with the workload engine's execOp. A
// nil probe is a no-op.
func (p *Probe) Observe(owner int, kind OpKind, path string, offset, size int64, start, done sim.Time) {
	p.record(owner, kind, path, offset, size, start, done)
}

func (p *Probe) record(owner int, kind OpKind, path string, offset, size int64, start, done sim.Time) {
	if p == nil {
		return
	}
	if p.Trace != nil {
		p.Trace(owner, kind, path, offset, size, start, done)
	}
	if p.Kinds != nil && !p.Kinds[kind] {
		return
	}
	if p.Series != nil {
		p.Series.Add(done, 1)
	}
	lat := done - start
	if done >= p.HistSince {
		if p.Hist != nil {
			p.Hist.Record(lat)
		}
		if p.PerOwner != nil {
			p.PerOwner.Record(owner, lat)
		}
	}
	if p.Timeline != nil {
		p.Timeline.Record(done, lat)
	}
}

// fsState tracks a fileset's live files during a run.
type fsState struct {
	spec    FileSet
	names   []string // existing file paths (index-addressable)
	nextNew int      // counter for fresh names
	zipf    *sim.Zipf
}

// threadState is one virtual thread. In a closed-loop class it is a
// self-paced loop over the class's flowops; in an open-loop class it
// is one worker of the class's service pool, executing op instances
// its generator dispatched.
type threadState struct {
	spec *ThreadSpec
	// owner is the thread's stable OwnerID: its index in the engine's
	// thread list, assigned in thread-spec declaration order. Probes
	// record per-owner stats under it; the mount submits the thread's
	// I/O as device owner owner+1 (positive, distinct from
	// device.OwnerNone and device.OwnerDaemon), so schedulers can
	// attribute every request to its requester.
	owner   int
	now     sim.Time
	opIdx   int
	iter    int
	cursors map[string]int64 // sequential-read cursors per fileset
	fds     vfs.FDTable      // uncapped
	rng     *sim.RNG

	// Open-loop worker state: the class this worker serves (nil for
	// closed loops) and the arrival time of the op instance currently
	// executing — the instant latency is measured from.
	class   *classState
	arrival sim.Time
}

// openLoop reports whether the thread serves an open-loop class.
func (th *threadState) openLoop() bool { return th.class != nil }

// curMap returns the sequential-cursor map ops should use: the
// class's shared map for open-loop workers, the thread's own for
// closed loops.
func (th *threadState) curMap() map[string]int64 {
	if th.class != nil {
		return th.class.cursors
	}
	return th.cursors
}

// classState is one open-loop thread class's shared state: the
// arrival backlog its generator fills and its idle workers park on,
// and the class's flowop cursor — in an open loop the *sequence* of
// op instances belongs to the class, not to any one worker.
// Sequential-I/O cursors live here too, for the same reason: instances
// of one logical stream land on whichever worker is free, and
// per-worker cursors would re-read the same offsets from every worker.
// (Baton serialization makes the shared maps safe, §4.2.)
type classState struct {
	spec    *ThreadSpec
	rng     *sim.RNG // arrival-time draws
	backlog sim.Backlog[arrival]
	opIdx   int
	iter    int
	cursors map[string]int64 // class-owned sequential cursors
}

// arrival is one dispatched op instance.
type arrival struct {
	op Flowop
	at sim.Time
}

// nextOp advances the class's flowop cursor.
func (cs *classState) nextOp() Flowop {
	return advanceFlowop(cs.spec, &cs.opIdx, &cs.iter)
}

// advanceFlowop returns the flowop at the (opIdx, iter) cursor and
// advances it, honoring Iters. The closed-loop step (per-thread
// cursor) and the open-loop generator (class cursor) share it so the
// two loop disciplines can never diverge on sequence semantics.
func advanceFlowop(spec *ThreadSpec, opIdx, iter *int) Flowop {
	op := spec.Flowops[*opIdx]
	iters := op.Iters
	if iters <= 0 {
		iters = 1
	}
	*iter++
	if *iter >= iters {
		*iter = 0
		*opIdx++
		if *opIdx >= len(spec.Flowops) {
			*opIdx = 0
		}
	}
	return op
}

// Engine runs one Workload against one Mount under virtual time.
//
// Setup executes in immediate mode (synchronous device accesses); Run
// executes on a discrete-event kernel: every virtual thread is a
// sim.Proc that blocks when it issues I/O and wakes on the completion
// event, so N threads genuinely contend for the device queue and
// queueing delay appears in the recorded latencies.
type Engine struct {
	m       *vfs.Mount
	w       *Workload
	rng     *sim.RNG
	sets    map[string]*fsState
	threads []*threadState
	classes []*classState // open-loop classes (generator per entry)
	probe   *Probe
	counter metrics.Counter
	load    metrics.LoadGauge
	qstats  device.QueueStats // device-queue counters from the last Run
	runErr  error             // first error raised by any proc during Run
}

// NewEngine prepares (but does not set up) an engine. The workload
// must validate.
func NewEngine(m *vfs.Mount, w *Workload, seed uint64) (*Engine, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{m: m, w: w, rng: sim.NewRNG(seed), sets: make(map[string]*fsState)}
	for i := range w.FileSets {
		spec := w.FileSets[i]
		st := &fsState{spec: spec}
		if spec.Entries > 1 {
			st.zipf = sim.NewZipf(e.rng.Split(), int64(spec.Entries), 1.1)
		}
		e.sets[spec.Name] = st
	}
	for ti := range w.Threads {
		spec := &w.Threads[ti]
		var cs *classState
		if spec.Arrival.Open() {
			cs = &classState{spec: spec, cursors: make(map[string]int64)}
		}
		for c := 0; c < spec.Count; c++ {
			e.threads = append(e.threads, &threadState{
				spec:    spec,
				owner:   len(e.threads),
				class:   cs,
				cursors: make(map[string]int64),
				rng:     e.rng.Split(),
			})
		}
		if cs != nil {
			// The generator's stream splits after the class's worker
			// streams, so purely closed-loop workloads keep the exact
			// RNG assignment they had before open loops existed.
			cs.rng = e.rng.Split()
			e.classes = append(e.classes, cs)
		}
	}
	return e, nil
}

// SetProbe installs the measurement probe.
func (e *Engine) SetProbe(p *Probe) { e.probe = p }

// Counter reports op totals accumulated so far.
func (e *Engine) Counter() metrics.Counter { return e.counter }

// Load reports the open-loop offered/completed gauge accumulated
// during Run. It stays zero-valued for purely closed-loop workloads,
// whose arrivals are gated by completions and cannot diverge.
func (e *Engine) Load() metrics.LoadGauge { return e.load }

// Mount exposes the mount under test.
func (e *Engine) Mount() *vfs.Mount { return e.m }

// Setup creates the filesets (directories, preallocated files) and
// flushes all dirty state so the measured phase starts from a clean,
// quiescent device. It returns the virtual time when setup finished.
func (e *Engine) Setup(at sim.Time) (sim.Time, error) {
	now := at
	for _, name := range e.setNamesSorted() {
		st := e.sets[name]
		spec := st.spec
		var err error
		if now, err = e.m.MkdirAll(now, spec.Dir); err != nil {
			return now, fmt.Errorf("setup fileset %s: %w", name, err)
		}
		prealloc := int(float64(spec.Entries)*spec.PreallocFrac + 0.5)
		for i := 0; i < prealloc; i++ {
			path := filePath(spec.Dir, name, i)
			fd, done, err := e.m.Create(now, path)
			if err != nil {
				return now, fmt.Errorf("setup fileset %s: %w", name, err)
			}
			now = done
			size := e.fileSize(st)
			if size > 0 {
				done, err = e.m.Write(now, fd, 0, size)
				if err != nil {
					return now, fmt.Errorf("setup fileset %s: %w", name, err)
				}
				now = done
			}
			st.names = append(st.names, path)
		}
		st.nextNew = prealloc
	}
	done, err := e.m.SyncAll(now)
	if err != nil {
		return now, err
	}
	return done, nil
}

// setNamesSorted keeps setup deterministic across map iteration.
func (e *Engine) setNamesSorted() []string {
	names := make([]string, 0, len(e.sets))
	for _, fsSet := range e.w.FileSets {
		names = append(names, fsSet.Name)
	}
	return names
}

// fileSize draws a file size from the fileset's distribution.
func (e *Engine) fileSize(st *fsState) int64 {
	if st.spec.ParetoAlpha <= 0 {
		return st.spec.MeanSize
	}
	// Pareto with mean m and shape a has xm = m(a-1)/a.
	a := st.spec.ParetoAlpha
	xm := float64(st.spec.MeanSize) * (a - 1) / a
	if xm < 1 {
		xm = 1
	}
	size := int64(e.rng.Pareto(xm, a))
	// Clip the tail at 64x the mean so one draw cannot fill the disk.
	if max := st.spec.MeanSize * 64; size > max {
		size = max
	}
	return size
}

func filePath(dir, set string, i int) string {
	if dir == "" || dir == "/" {
		return fmt.Sprintf("/%s-%05d", set, i)
	}
	return fmt.Sprintf("%s/%s-%05d", dir, set, i)
}

// DropCaches empties the page cache (Mount.DropCaches).
func (e *Engine) DropCaches() { e.m.DropCaches() }

// Run executes the workload from time `from` until every thread's
// clock passes `until`. It returns the final virtual time (max over
// threads).
//
// Run is a discrete-event simulation: threads are processes on an
// event loop ordered by (time, sequence), a thread issuing I/O parks
// until its completion event fires, and ops start in global
// virtual-time order — so the result is bit-identical for a given
// (workload, seed) at any host parallelism.
//
// Closed-loop thread classes run the classic loop: each thread issues
// its next op when the previous one completes. Open-loop classes add
// a generator process per class that stamps arrival times and
// dispatches op instances to the class's workers, so arrivals are not
// gated by service completions; latency is measured from arrival, and
// the offered-vs-completed gap lands in Load().
func (e *Engine) Run(from, until sim.Time) (sim.Time, error) {
	loop := sim.NewEventLoop(from)
	if err := e.begin(loop, until); err != nil {
		return from, err
	}
	loop.Run() // drains thread procs and all async completions
	return e.end()
}

// begin switches the mount into event mode on loop and spawns every
// thread and generator process at the loop's current time. It is the
// front half of Run, split out so a sharded run can begin each shard
// engine on its own shard loop before the coordinator runs them all.
func (e *Engine) begin(loop *sim.EventLoop, until sim.Time) error {
	if err := e.m.BeginEvents(loop); err != nil {
		return err
	}
	e.beginProcs(loop, until)
	return nil
}

// beginBridged is begin for a shared-device shard: the mount routes
// I/O through sub (a cross-shard bridge to the device shard's queue)
// instead of a queue of its own.
func (e *Engine) beginBridged(loop *sim.EventLoop, until sim.Time, sub vfs.Submitter) {
	e.m.BeginEventsBridged(loop, sub)
	e.beginProcs(loop, until)
}

// beginProcs spawns every thread and generator process at the loop's
// current time — the common tail of begin and beginBridged.
func (e *Engine) beginProcs(loop *sim.EventLoop, until sim.Time) {
	from := loop.Now()
	// Every live thread holds one pending event (its park/unpark or
	// completion) at a time, plus the daemon's wake-up: reserving the
	// population up front keeps the measured phase free of heap
	// growth.
	loop.Reserve(len(e.threads) + len(e.classes) + 16)
	e.runErr = nil
	// Workers spawn before generators so every idle worker is parked
	// on its class's backlog before the first arrival fires.
	for _, th := range e.threads {
		th := th
		th.now = from
		body := e.closedLoop
		if th.openLoop() {
			body = e.workerLoop
		}
		e.m.Go(func(p *sim.Proc) { body(p, th, until, &e.runErr) })
	}
	for _, cs := range e.classes {
		cs := cs
		e.m.Go(func(p *sim.Proc) { e.generate(p, cs, until, &e.runErr) })
	}
}

// end leaves event mode and reports the final virtual time (max over
// threads) and the first error any process raised — the back half of
// Run.
func (e *Engine) end() (sim.Time, error) {
	e.qstats = e.m.EndEvents()
	var end sim.Time
	for _, th := range e.threads {
		if th.now > end {
			end = th.now
		}
	}
	return end, e.runErr
}

// closedLoop is the classic self-paced thread body.
func (e *Engine) closedLoop(p *sim.Proc, th *threadState, until sim.Time, runErr *error) {
	for th.now < until && *runErr == nil {
		// Align the op's start with the global clock so ops across
		// threads execute in virtual-time order, then rebind the mount
		// to this thread's process and requester identity.
		p.WaitUntil(th.now)
		e.m.SetProc(p, th.owner+1)
		if err := e.step(th); err != nil {
			if *runErr == nil {
				*runErr = err
			}
			return
		}
	}
}

// workerLoop is one open-loop service process: it pulls op instances
// off its class's backlog and executes them, parking while the
// backlog is empty. Queueing delay ahead of service — the open-loop
// signature — lands in the recorded latency because execOp measures
// from the instance's arrival time.
func (e *Engine) workerLoop(p *sim.Proc, th *threadState, until sim.Time, runErr *error) {
	b := &th.class.backlog
	for *runErr == nil {
		var ok bool
		if th.now, ok = b.Wait(p, th.now); !ok || *runErr != nil {
			return
		}
		if th.now >= until {
			// Abandon the backlog: Load() reports it as offered minus
			// completed — the divergence a closed loop cannot show.
			return
		}
		job := b.Pop()
		if job.at > th.now {
			th.now = job.at
		}
		p.WaitUntil(th.now)
		e.m.SetProc(p, th.owner+1)
		th.arrival = job.at
		err := e.execOp(th, job.op)
		e.load.Complete()
		if err != nil {
			if *runErr == nil {
				*runErr = err
			}
			return
		}
	}
}

// generate is an open-loop class's arrival process: it stamps arrival
// times per the class's Arrival spec and pushes op instances onto the
// class backlog, which hands the baton to an idle worker when one is
// parked. It never waits for service completions — that independence
// is the whole point.
func (e *Engine) generate(p *sim.Proc, cs *classState, until sim.Time, runErr *error) {
	// Closing wakes every idle worker so it can exit; otherwise the
	// parked procs would never finish and the write-back daemon would
	// keep the loop alive forever.
	defer cs.backlog.Close()
	a := cs.spec.Arrival
	perOp := float64(sim.Second) / a.Rate
	next := p.Now()
	for *runErr == nil {
		var gap sim.Time
		switch a.Kind {
		case ArrivalPoisson:
			gap = sim.Time(cs.rng.Exponential(perOp))
		case ArrivalUniform:
			gap = sim.Time(perOp)
		case ArrivalBurst:
			gap = sim.Time(float64(a.Burst) * perOp)
		}
		if gap < 1 {
			// A drawn or configured gap below the 1 ns clock resolution
			// must still advance time, or a super-GHz rate would pin
			// `next` forever and the generator would spin appending
			// arrivals at one instant without ever yielding.
			gap = 1
		}
		next += gap
		if next >= until {
			return
		}
		p.WaitUntil(next)
		n := 1
		if a.Kind == ArrivalBurst {
			n = a.Burst
		}
		for i := 0; i < n; i++ {
			e.load.Arrive()
			cs.backlog.Push(arrival{op: cs.nextOp(), at: next})
		}
	}
}

// QueueStats reports the device-queue counters accumulated during the
// last Run: submissions, completions, the queue-occupancy high-water
// mark, and total queueing delay.
func (e *Engine) QueueStats() device.QueueStats { return e.qstats }

// step executes one flowop on one thread, advancing its clock.
func (e *Engine) step(th *threadState) error {
	return e.execOp(th, advanceFlowop(th.spec, &th.opIdx, &th.iter))
}

// pickExisting selects a live file, uniform or Zipf.
func (e *Engine) pickExisting(th *threadState, st *fsState, zipf bool) (string, bool) {
	n := len(st.names)
	if n == 0 {
		return "", false
	}
	var idx int
	if zipf && st.zipf != nil {
		// The Zipf sampler ranges over spec.Entries ranks, but the
		// live-name list can be smaller (low PreallocFrac, deletes).
		// Folding out-of-range ranks through %n would alias distinct
		// ranks onto the same files and distort the popularity
		// distribution, so redraw instead; after a bounded number of
		// attempts clamp to the least-popular live file to keep the
		// pick O(1) even when almost all mass is out of range.
		r := st.zipf.Next()
		for tries := 0; r >= int64(n) && tries < 64; tries++ {
			r = st.zipf.Next()
		}
		if r >= int64(n) {
			r = int64(n) - 1
		}
		idx = int(r)
	} else {
		idx = th.rng.Intn(n)
	}
	return st.names[idx], true
}

// openFD returns (opening if needed) the thread's handle for path.
func (e *Engine) openFD(th *threadState, path string) (*vfs.FD, error) {
	if fd, ok := th.fds.Get(path); ok {
		return fd, nil
	}
	fd, done, err := e.m.Open(th.now, path)
	if err != nil {
		return nil, err
	}
	th.now = done
	th.fds.Add(path, fd)
	return fd, nil
}

// execOp performs one flowop instance. Errors of the benign kind
// (create racing delete within the workload's own churn) are counted,
// not fatal. moved accumulates the bytes the op actually transferred
// (a whole-file read counts the whole file, a clamped read counts the
// clamped length), which is what the byte counter and the probe
// report.
func (e *Engine) execOp(th *threadState, op Flowop) error {
	start := th.now + th.spec.PerOpOverhead
	if op.Kind == OpThink {
		th.now = start + op.Think
		return nil
	}
	st := e.sets[op.FileSet]
	var done sim.Time
	var err error
	var tPath string
	var tOff int64
	var moved int64
	switch op.Kind {
	case OpReadRand, OpReadSeq, OpReadWholeFile:
		path, ok := e.pickExisting(th, st, op.Zipf)
		if !ok {
			th.now = start
			return nil
		}
		var fd *vfs.FD
		th.now = start
		fd, err = e.openFD(th, path)
		if err != nil {
			break
		}
		start = th.now
		tPath = path
		switch op.Kind {
		case OpReadRand:
			size := fd.Size()
			if size <= op.IOSize {
				moved, done, err = e.m.Read(start, fd, 0, op.IOSize)
				break
			}
			slots := (size - op.IOSize) / op.IOSize
			off := th.rng.Int63n(slots+1) * op.IOSize
			tOff = off
			moved, done, err = e.m.Read(start, fd, off, op.IOSize)
		case OpReadSeq:
			cursors := th.curMap()
			cur := cursors[path]
			if cur >= fd.Size() {
				cur = 0
			}
			tOff = cur
			moved, done, err = e.m.Read(start, fd, cur, op.IOSize)
			if err == nil {
				// Advance by the bytes actually read: an errored or
				// short read must not walk the cursor past EOF between
				// resets.
				cursors[path] = cur + moved
			}
		case OpReadWholeFile:
			now := start
			var n int64
			for off := int64(0); off < fd.Size(); off += op.IOSize {
				n, now, err = e.m.Read(now, fd, off, op.IOSize)
				if err != nil || n == 0 {
					break
				}
				moved += n
			}
			done = now
		}
	case OpWriteRand, OpWriteSeq, OpAppend:
		path, ok := e.pickExisting(th, st, op.Zipf)
		if !ok {
			th.now = start
			return nil
		}
		var fd *vfs.FD
		th.now = start
		fd, err = e.openFD(th, path)
		if err != nil {
			break
		}
		start = th.now
		tPath = path
		switch op.Kind {
		case OpWriteRand:
			size := fd.Size()
			var off int64
			if size > op.IOSize {
				off = th.rng.Int63n((size-op.IOSize)/op.IOSize+1) * op.IOSize
			}
			tOff = off
			done, err = e.m.Write(start, fd, off, op.IOSize)
			if err == nil {
				moved = op.IOSize
			}
		case OpWriteSeq:
			cursors := th.curMap()
			cur := cursors[path]
			if cur >= fd.Size() {
				cur = 0
			}
			tOff = cur
			done, err = e.m.Write(start, fd, cur, op.IOSize)
			if err == nil {
				// VFS writes extend the file rather than writing short,
				// so a successful write moved the full IOSize; a failed
				// one must leave the cursor where it was.
				moved = op.IOSize
				cursors[path] = cur + op.IOSize
			}
		case OpAppend:
			tOff = fd.Size()
			done, err = e.m.Write(start, fd, fd.Size(), op.IOSize)
			if err == nil {
				moved = op.IOSize
			}
		}
	case OpCreate:
		path := filePath(st.spec.Dir, st.spec.Name, st.nextNew)
		tPath = path
		st.nextNew++
		var fd *vfs.FD
		fd, done, err = e.m.Create(start, path)
		if err == nil {
			st.names = append(st.names, path)
			if st.spec.MeanSize > 0 {
				size := e.fileSize(st)
				done, err = e.m.Write(done, fd, 0, size)
				if err == nil {
					moved = size
				}
			}
		}
	case OpDelete:
		if len(st.names) == 0 {
			th.now = start
			return nil
		}
		idx := th.rng.Intn(len(st.names))
		path := st.names[idx]
		tPath = path
		st.names[idx] = st.names[len(st.names)-1]
		st.names = st.names[:len(st.names)-1]
		for _, t := range e.threads {
			t.fds.Drop(path)
			delete(t.cursors, path)
		}
		for _, cs := range e.classes {
			delete(cs.cursors, path)
		}
		done, err = e.m.Unlink(start, path)
	case OpStat:
		path, ok := e.pickExisting(th, st, op.Zipf)
		if !ok {
			th.now = start
			return nil
		}
		tPath = path
		_, done, err = e.m.Stat(start, path)
	case OpOpen:
		path, ok := e.pickExisting(th, st, op.Zipf)
		if !ok {
			th.now = start
			return nil
		}
		th.now = start
		_, err = e.openFD(th, path)
		done = th.now
	case OpClose:
		// Close the least-recently-opened handle: map iteration order
		// would make the choice (and thus all timings) nondeterministic.
		if path, fd := th.fds.Oldest(); fd != nil {
			th.fds.Close(path)
		}
		done = start
	case OpFsync:
		_, target := th.fds.Oldest()
		if target == nil {
			th.now = start
			return nil
		}
		done, err = e.m.Fsync(start, target)
	case OpMkdir:
		path := fmt.Sprintf("%s/d-%06d", st.spec.Dir, st.nextNew)
		st.nextNew++
		done, err = e.m.Mkdir(start, path)
	case OpReadDir:
		dir := st.spec.Dir
		if dir == "" {
			dir = "/"
		}
		_, done, err = e.m.ReadDir(start, dir)
	default:
		return fmt.Errorf("workload: unimplemented op %v", op.Kind)
	}
	if err != nil {
		e.counter.Errors++
		// Benign errors advance time minimally and continue; the
		// engine is a load generator, not a correctness checker.
		th.now = start + sim.Microsecond
		return nil
	}
	if done < start {
		done = start
	}
	e.counter.Ops++
	e.counter.Bytes += moved
	recStart := start
	if th.openLoop() {
		// Open-loop latency runs from queue entry, not service start:
		// the time an instance waited for a free worker is exactly the
		// saturation signal a closed loop self-throttles away.
		recStart = th.arrival
	}
	e.probe.record(th.owner, op.Kind, tPath, tOff, moved, recStart, done)
	th.now = done
	return nil
}
