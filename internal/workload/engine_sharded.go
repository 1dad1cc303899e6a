package workload

import (
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// ShardedEngine runs one Workload partitioned across N shards, each
// shard a complete Engine over its own Mount (device, cache, VFS) on
// its own sim.ShardedLoop shard. Replica shards share nothing and run
// in parallel without synchronizing; shared-device shards advance
// under conservative time windows. Within a shard the ordinary
// single-baton determinism rules hold, so a sharded run is
// bit-identical across repeats and host parallelism for a fixed
// (workload, seed, shard count).
//
// Partitioning rules:
//   - Closed-loop threads are dealt round-robin by global thread
//     index: thread i lands on shard i mod N.
//   - An open-loop class is indivisible — its generator, arrival
//     queue, and worker pool share state — so class k (in open-class
//     declaration order) lands wholly on shard k mod N.
//   - Every fileset is replicated onto every shard: round-robin
//     spreads each class's threads across all shards, so in general
//     every shard touches every fileset. Namespace churn (create,
//     delete) is shard-local.
//
// Thread owner IDs stay global (declaration order), so per-owner
// probes and queue stats merge without collisions.
//
// A shard therefore models its own complete machine: N shards means N
// device queues and N caches. That changes the contended system —
// shards>1 answers "N replicas of 1/Nth the load", not "the same one
// device under the same load" — which is exactly why shard count is
// excluded from the warehouse config fingerprint and recorded as
// run metadata instead (like Parallelism). See DESIGN.md §9.
type ShardedEngine struct {
	w      *Workload
	shards []*Engine
	probe  *Probe

	// Shared-device mode (NewSharedDeviceEngine): the thread shards'
	// mounts all sit on dev, and one extra shard owns sharedQ — the
	// single device queue every submission crosses into by mailbox.
	shared       bool
	dev          device.Device
	sharedQ      *device.Queue
	sharedQStats device.QueueStats
}

// NewShardedEngine prepares one engine per mount and partitions the
// workload's threads across them. The workload must validate; every
// mount must be distinct and freshly built.
func NewShardedEngine(mounts []*vfs.Mount, w *Workload, seed uint64) (*ShardedEngine, error) {
	if err := validateMounts(mounts); err != nil {
		return nil, err
	}
	// Replica shards run concurrently with no synchronization below
	// the mailbox layer: a device reached from two shards would race.
	// That configuration is exactly what NewSharedDeviceEngine exists
	// for, so name it in the error.
	for i, m := range mounts {
		for j := 0; j < i; j++ {
			if mounts[j].Dev == m.Dev {
				return nil, fmt.Errorf("workload: sharded engine: mounts %d and %d share a device; replica shards need private devices (use NewSharedDeviceEngine)", j, i)
			}
		}
	}
	return newPartitioned(mounts, w, seed)
}

// NewSharedDeviceEngine prepares a shared-device sharded engine: the
// mounts must be distinct stacks (own cache, own FS instance, own
// write-back daemon) that all sit on the same device. Thread
// partitioning is identical to NewShardedEngine, but instead of N
// replica device queues the run gets one extra shard owning a single
// queue over the shared device; every mount submits into it through
// cross-shard mailbox edges. This is the partitioning that
// parallelizes the contention scenarios replica sharding cannot
// express: N thread shards hammering one device.
func NewSharedDeviceEngine(mounts []*vfs.Mount, w *Workload, seed uint64) (*ShardedEngine, error) {
	if err := validateMounts(mounts); err != nil {
		return nil, err
	}
	for i, m := range mounts {
		if m.Dev != mounts[0].Dev {
			return nil, fmt.Errorf("workload: shared-device engine: mount %d has its own device; all mounts must share one", i)
		}
	}
	se, err := newPartitioned(mounts, w, seed)
	if err != nil {
		return nil, err
	}
	se.shared = true
	se.dev = mounts[0].Dev
	return se, nil
}

// validateMounts rejects nil and duplicate mounts.
func validateMounts(mounts []*vfs.Mount) error {
	if len(mounts) < 1 {
		return fmt.Errorf("workload: sharded engine needs at least one mount")
	}
	for i, m := range mounts {
		if m == nil {
			return fmt.Errorf("workload: sharded engine: mount %d is nil", i)
		}
		for j := 0; j < i; j++ {
			if mounts[j] == m {
				return fmt.Errorf("workload: sharded engine: mounts %d and %d are the same stack", j, i)
			}
		}
	}
	return nil
}

// newPartitioned builds the per-shard engines and partitions filesets
// and threads — the partitioning shared by both sharding modes.
func newPartitioned(mounts []*vfs.Mount, w *Workload, seed uint64) (*ShardedEngine, error) {
	n := len(mounts)
	if err := w.Validate(); err != nil {
		return nil, err
	}
	// All randomness splits off one master stream in a fixed order, so
	// the assignment depends only on (seed, workload, shard count).
	master := sim.NewRNG(seed)
	se := &ShardedEngine{w: w, shards: make([]*Engine, n)}
	for i, m := range mounts {
		se.shards[i] = &Engine{m: m, w: w, rng: master.Split(), sets: make(map[string]*fsState)}
	}
	// Filesets replicate onto every shard. Each fileset draws one base
	// stream (mirroring NewEngine's per-fileset split), then one
	// sub-stream per shard replica, so replicas sample popularity
	// independently but deterministically.
	for i := range w.FileSets {
		spec := w.FileSets[i]
		var base *sim.RNG
		if spec.Entries > 1 {
			base = master.Split()
		}
		for _, sh := range se.shards {
			st := &fsState{spec: spec}
			if base != nil {
				st.zipf = sim.NewZipf(base.Split(), int64(spec.Entries), 1.1)
			}
			sh.sets[spec.Name] = st
		}
	}
	// Threads: owner IDs and RNG streams are assigned in global
	// declaration order — before and independent of shard placement —
	// so per-thread streams are stable properties of the workload.
	owner := 0
	openClasses := 0
	for ti := range w.Threads {
		spec := &w.Threads[ti]
		var cs *classState
		var home *Engine
		if spec.Arrival.Open() {
			cs = &classState{spec: spec, cursors: make(map[string]int64)}
			home = se.shards[openClasses%n]
			openClasses++
		}
		for c := 0; c < spec.Count; c++ {
			sh := home
			if sh == nil {
				sh = se.shards[owner%n]
			}
			sh.threads = append(sh.threads, &threadState{
				spec:    spec,
				owner:   owner,
				class:   cs,
				cursors: make(map[string]int64),
				rng:     master.Split(),
			})
			owner++
		}
		if cs != nil {
			cs.rng = master.Split()
			home.classes = append(home.classes, cs)
		}
	}
	return se, nil
}

// SetProbe installs the measurement probe. During Run each shard
// records into a private clone; the clones merge back into p when the
// run completes. Probe.Trace is unsupported at shards>1 — a global
// trace would need a total cross-shard op order that sharding
// deliberately does not compute.
func (se *ShardedEngine) SetProbe(p *Probe) { se.probe = p }

// Setup builds every shard's filesets — concurrently in replica mode,
// where shards are independent stacks in immediate mode and host
// parallelism cannot affect any shard's result; sequentially in
// shared-device mode, where every shard's immediate-mode setup I/O
// mutates the one device's mechanical state (head position, noise
// stream), so interleaving would be both racy and nondeterministic.
// It returns the latest per-shard finish time, so all shards start
// the measured phase on one common clock.
func (se *ShardedEngine) Setup(at sim.Time) (sim.Time, error) {
	times := make([]sim.Time, len(se.shards))
	errs := make([]error, len(se.shards))
	if se.shared {
		for i, sh := range se.shards {
			times[i], errs[i] = sh.Setup(at)
		}
	} else {
		var wg sync.WaitGroup
		for i, sh := range se.shards {
			i, sh := i, sh
			wg.Add(1)
			go func() {
				defer wg.Done()
				times[i], errs[i] = sh.Setup(at)
			}()
		}
		wg.Wait()
	}
	var start sim.Time
	for i := range se.shards {
		if errs[i] != nil {
			return at, fmt.Errorf("shard %d: %w", i, errs[i])
		}
		if times[i] > start {
			start = times[i]
		}
	}
	return start, nil
}

// DropCaches empties every shard's caches.
func (se *ShardedEngine) DropCaches() {
	for _, sh := range se.shards {
		sh.DropCaches()
	}
}

// Run executes the workload across all shards from time `from` until
// every thread's clock passes `until`, and merges per-shard probe
// records back into the installed probe. It returns the final virtual
// time (max over threads of all shards).
func (se *ShardedEngine) Run(from, until sim.Time) (sim.Time, error) {
	if se.probe != nil && se.probe.Trace != nil {
		return from, fmt.Errorf("workload: op tracing requires shards=1")
	}
	n := len(se.shards)
	// Replica shards never Send, so they get no edges (and the
	// lookahead is moot): each shard is released once with an open
	// horizon and runs to the end alone.
	edges := make([][]int, n)
	var la sim.Time
	if se.shared {
		// Star topology: every thread shard exchanges mail with the
		// device shard only, so thread shards are not barrier-stalled
		// by the hot device shard (and vice versa) beyond true causal
		// limits. The window width is the device cost model's
		// service-time floor: a completion mailed at dispatch with its
		// (known) future completion time is then never clamped, so
		// threads resume at the exact single-loop completion instant.
		la = se.dev.MinLatency()
		hub := make([]int, n)
		for i := range edges {
			edges[i] = []int{n}
			hub[i] = i
		}
		edges = append(edges, hub)
	}
	sl := sim.NewShardedLoop(from, la, edges)
	var bridges []*deviceBridge
	if se.shared {
		q, err := se.shards[0].m.NewQueue(sl.Shard(n))
		if err != nil {
			return from, err
		}
		se.sharedQ = q
		bridges = make([]*deviceBridge, n)
		for i := 0; i < n; i++ {
			bridges[i] = newDeviceBridge(sl, i, n, q)
		}
	}
	probes := make([]*Probe, n)
	for i, sh := range se.shards {
		probes[i] = cloneProbe(se.probe)
		sh.SetProbe(probes[i])
		if se.shared {
			sh.beginBridged(sl.Shard(i), until, bridges[i])
		} else if err := sh.begin(sl.Shard(i), until); err != nil {
			return from, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	sl.Run()
	if se.sharedQ != nil {
		se.sharedQStats = se.sharedQ.Stats()
		se.sharedQ = nil
	}
	var end sim.Time
	var firstErr error
	for i, sh := range se.shards {
		t, err := sh.end()
		if t > end {
			end = t
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	// Merge in shard order: deterministic, and per-shard records are
	// themselves deterministic.
	for _, pc := range probes {
		mergeProbe(se.probe, pc)
	}
	return end, firstErr
}

// Counter reports op totals summed over shards.
func (se *ShardedEngine) Counter() metrics.Counter {
	var c metrics.Counter
	for _, sh := range se.shards {
		c.Add(sh.Counter())
	}
	return c
}

// Load reports the open-loop gauge merged over shards.
func (se *ShardedEngine) Load() metrics.LoadGauge {
	var g metrics.LoadGauge
	for _, sh := range se.shards {
		g.Merge(sh.Load())
	}
	return g
}

// QueueStats reports the device-queue counters from the last Run:
// merged per-shard queues in replica mode, the one shared queue in
// shared-device mode (bridged mounts report zero stats of their own).
func (se *ShardedEngine) QueueStats() device.QueueStats {
	var qs device.QueueStats
	for _, sh := range se.shards {
		qs.Merge(sh.QueueStats())
	}
	qs.Merge(se.sharedQStats)
	return qs
}

// deviceBridge implements vfs.Submitter for one thread shard in
// shared-device mode: Submit mails the request to the device shard
// (the submit edge pays up to one lookahead of mailbox latency — the
// disclosed cost of the mode), where it enters the shared queue with
// a return sender that mails the completion back. Because completions
// are mailed at dispatch stamped with their exact completion time —
// always at least MinLatency ≥ lookahead in the future — the
// completion edge is never clamped and costs nothing.
type deviceBridge struct {
	sl       *sim.ShardedLoop
	src, dst int
	q        *device.Queue
	sender   device.RemoteSender
}

func newDeviceBridge(sl *sim.ShardedLoop, src, dst int, q *device.Queue) *deviceBridge {
	b := &deviceBridge{sl: sl, src: src, dst: dst, q: q}
	// One completion sender per shard for the queue to reuse — not one
	// closure per request.
	b.sender = func(at sim.Time, fn func()) { sl.Send(dst, src, at, fn) }
	return b
}

// Submit implements vfs.Submitter.
func (b *deviceBridge) Submit(at sim.Time, req device.Request, done device.Completer) {
	b.sl.Send(b.src, b.dst, at, func() {
		// Runs on the device shard at the (clamped) arrival time;
		// SubmitRemote re-clamps at up to the loop clock.
		b.q.SubmitRemote(at, req, b.sender, done)
	})
}

// cloneProbe builds an empty probe with the same sinks enabled, the
// same alignment (interval, offset), and the same filters as p.
func cloneProbe(p *Probe) *Probe {
	if p == nil {
		return nil
	}
	c := &Probe{HistSince: p.HistSince, Kinds: p.Kinds}
	if p.Series != nil {
		c.Series = metrics.NewTimeSeriesOffset(p.Series.Interval(), p.Series.Offset())
	}
	if p.Hist != nil {
		c.Hist = &metrics.Histogram{}
	}
	if p.Timeline != nil {
		c.Timeline = metrics.NewHistogramTimelineOffset(p.Timeline.Interval(), p.Timeline.Offset())
	}
	if p.PerOwner != nil {
		c.PerOwner = &metrics.PerOwner{}
	}
	return c
}

// mergeProbe folds a shard clone's records back into the original.
func mergeProbe(dst, src *Probe) {
	if dst == nil || src == nil {
		return
	}
	if dst.Series != nil {
		dst.Series.Merge(src.Series)
	}
	if dst.Hist != nil {
		dst.Hist.Merge(src.Hist)
	}
	if dst.Timeline != nil {
		dst.Timeline.Merge(src.Timeline)
	}
	if dst.PerOwner != nil {
		dst.PerOwner.Merge(src.PerOwner)
	}
}
