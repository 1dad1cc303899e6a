package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// span accumulates the calls through one seam method and the host time
// spent inside them. Spans stay in memory and are printed when the run
// ends. The wrapped layers call no other wrapped layer, so a span's
// duration is its layer's self time.
type span struct {
	calls int64
	busy  time.Duration
}

// done closes one call opened at t0; use as `defer s.done(time.Now())`.
func (s *span) done(t0 time.Time) {
	s.calls++
	s.busy += time.Since(t0)
}

func (s *span) add(o span) {
	s.calls += o.calls
	s.busy += o.busy
}

// Seam methods timed by the file-system wrapper, in print order.
const (
	fsLookup = iota
	fsGetattr
	fsCreate
	fsRemove
	fsReadDir
	fsMap
	fsResize
	fsFsync
	fsTouchAtime
	numFSOps
)

var fsOpNames = [numFSOps]string{"Lookup", "Getattr", "Create", "Remove",
	"ReadDir", "Map", "Resize", "Fsync", "TouchAtime"}

// fsTimer wraps Mount.FS. The methods it does not time (Name, Root,
// capacity and readahead queries) pass through the embedded model.
type fsTimer struct {
	fs.FileSystem
	ops [numFSOps]span
}

func (t *fsTimer) Lookup(dir fs.Ino, name string) (fs.Ino, []fs.IOStep, error) {
	defer t.ops[fsLookup].done(time.Now())
	return t.FileSystem.Lookup(dir, name)
}

func (t *fsTimer) Getattr(ino fs.Ino) (fs.Inode, []fs.IOStep, error) {
	defer t.ops[fsGetattr].done(time.Now())
	return t.FileSystem.Getattr(ino)
}

func (t *fsTimer) Create(dir fs.Ino, name string, ft fs.FileType, now sim.Time) (fs.Ino, []fs.IOStep, error) {
	defer t.ops[fsCreate].done(time.Now())
	return t.FileSystem.Create(dir, name, ft, now)
}

func (t *fsTimer) Remove(dir fs.Ino, name string, now sim.Time) ([]fs.IOStep, error) {
	defer t.ops[fsRemove].done(time.Now())
	return t.FileSystem.Remove(dir, name, now)
}

func (t *fsTimer) ReadDir(dir fs.Ino) ([]fs.DirEntry, []fs.IOStep, error) {
	defer t.ops[fsReadDir].done(time.Now())
	return t.FileSystem.ReadDir(dir)
}

func (t *fsTimer) Map(ino fs.Ino, fileBlock, n int64) ([]fs.Extent, []fs.IOStep, error) {
	defer t.ops[fsMap].done(time.Now())
	return t.FileSystem.Map(ino, fileBlock, n)
}

func (t *fsTimer) Resize(ino fs.Ino, size int64, now sim.Time) ([]fs.IOStep, error) {
	defer t.ops[fsResize].done(time.Now())
	return t.FileSystem.Resize(ino, size, now)
}

func (t *fsTimer) Fsync(ino fs.Ino) ([]fs.IOStep, error) {
	defer t.ops[fsFsync].done(time.Now())
	return t.FileSystem.Fsync(ino)
}

func (t *fsTimer) TouchAtime(ino fs.Ino, now sim.Time) []fs.IOStep {
	defer t.ops[fsTouchAtime].done(time.Now())
	return t.FileSystem.TouchAtime(ino, now)
}

// devTimer wraps Mount.Dev, under the event-mode queue.
type devTimer struct {
	device.Device
	submit span
}

func (t *devTimer) Submit(at sim.Time, req device.Request) (sim.Time, error) {
	defer t.submit.done(time.Now())
	return t.Device.Submit(at, req)
}

// ServiceWidth forwards the wrapped device's width, as device.Faulty
// does: without it the queue would serve a multi-channel NVMe device
// one request at a time and change every modelled result.
func (t *devTimer) ServiceWidth() int {
	if mq, ok := t.Device.(device.MultiQueue); ok {
		return mq.ServiceWidth()
	}
	return 1
}

// Policy methods timed by the eviction-policy wrapper, in print order.
const (
	polAccess = iota
	polInsert
	polRemove
	polMiss
	polVictim
	numPolicyOps
)

var policyOpNames = [numPolicyOps]string{"OnAccess", "OnInsert", "OnRemove", "OnMiss", "Victim"}

// policyTimer wraps the L1 cache's eviction policy; Name and
// SetCapacity pass through.
type policyTimer struct {
	cache.Policy
	ops [numPolicyOps]span
}

func (t *policyTimer) OnAccess(id cache.PageID) {
	defer t.ops[polAccess].done(time.Now())
	t.Policy.OnAccess(id)
}

func (t *policyTimer) OnInsert(id cache.PageID) {
	defer t.ops[polInsert].done(time.Now())
	t.Policy.OnInsert(id)
}

func (t *policyTimer) OnRemove(id cache.PageID) {
	defer t.ops[polRemove].done(time.Now())
	t.Policy.OnRemove(id)
}

func (t *policyTimer) OnMiss(id cache.PageID) {
	defer t.ops[polMiss].done(time.Now())
	t.Policy.OnMiss(id)
}

func (t *policyTimer) Victim() (cache.PageID, bool) {
	defer t.ops[polVictim].done(time.Now())
	return t.Policy.Victim()
}

// mountSeams are the wrappers swapped into one mount.
type mountSeams struct {
	fs  *fsTimer
	dev *devTimer
	pol *policyTimer
}

// instrument swaps timing wrappers into a freshly built mount, before
// any engine sets it up: around the file system, around the device,
// and around the L1 eviction policy through a fresh, still empty L1
// cache of the same capacity and policy.
func instrument(m *vfs.Mount) *mountSeams {
	s := &mountSeams{
		fs:  &fsTimer{FileSystem: m.FS},
		dev: &devTimer{Device: m.Dev},
		pol: &policyTimer{Policy: m.PC.L1.Policy()},
	}
	m.FS, m.Dev = s.fs, s.dev
	m.PC.L1 = cache.New(m.PC.L1.Capacity(), s.pol)
	return s
}

// sourceTimer wraps a replay trace.Source; its iterators time every
// record decode, the engine's pre-scan pass included.
type sourceTimer struct {
	src     trace.Source
	next    span
	records int64
}

func (t *sourceTimer) Open() (trace.Iterator, error) {
	it, err := t.src.Open()
	if err != nil {
		return nil, err
	}
	return &iterTimer{Iterator: it, t: t}, nil
}

type iterTimer struct {
	trace.Iterator
	t *sourceTimer
}

func (it *iterTimer) Next() (trace.Record, error) {
	defer it.t.next.done(time.Now())
	rec, err := it.Iterator.Next()
	if err == nil {
		it.t.records++
	}
	return rec, err
}

// seamTotals sums one traced repetition's spans over its mounts.
type seamTotals struct {
	fs      [numFSOps]span
	policy  [numPolicyOps]span
	dev     span
	decode  span  // replay trace decodes
	records int64 // records decoded
}

func (r *rep) totals() *seamTotals {
	t := &seamTotals{}
	for _, s := range r.seams {
		for i := range t.fs {
			t.fs[i].add(s.fs.ops[i])
		}
		for i := range t.policy {
			t.policy[i].add(s.pol.ops[i])
		}
		t.dev.add(s.dev.submit)
	}
	if r.src != nil {
		t.decode, t.records = r.src.next, r.src.records
	}
	return t
}

// sumSpans merges the spans of several methods.
func sumSpans(ss []span) span {
	var out span
	for _, s := range ss {
		out.add(s)
	}
	return out
}

// print writes one line per seam method that was called.
func (t *seamTotals) print(w io.Writer) {
	row := func(seam, method string, s span) {
		if s.calls > 0 {
			fmt.Fprintf(w, "span %-7s %-10s calls %10d busy %9.4fs\n", seam, method, s.calls, s.busy.Seconds())
		}
	}
	for i, s := range t.fs {
		row("fs", fsOpNames[i], s)
	}
	for i, s := range t.policy {
		row("policy", policyOpNames[i], s)
	}
	row("device", "Submit", t.dev)
	row("trace", "Next", t.decode)
}
