package vfs

import (
	"testing"

	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/sim"
)

// TestSubmitAsyncAllocPinned pins the fire-and-forget hot path
// (journal pushes, eviction write-back, prefetch): one full
// schedule → arrival → queue-submit → completion cycle on the
// nil-completer path allocates nothing. The pooled asyncReq event and
// the queue's recycled IORequest are what this pin protects; a closure
// or a fresh IORequest per request shows up as one allocation each.
func TestSubmitAsyncAllocPinned(t *testing.T) {
	m := newMount(t, 64, 0)
	loop := sim.NewEventLoop(0)
	if err := m.BeginEvents(loop); err != nil {
		t.Fatal(err)
	}
	loop.Reserve(64)
	req := device.Request{Op: device.Write, LBA: 4096, Sectors: 8, Owner: device.OwnerNone}
	// Warm the pools, the scheduler window, and the per-owner stats map.
	for i := 0; i < 4; i++ {
		if err := m.submitAsync(loop.Now(), req, nil); err != nil {
			t.Fatal(err)
		}
	}
	loop.Run()
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.submitAsync(loop.Now(), req, nil); err != nil {
			t.Fatal(err)
		}
		loop.Run() // arrival event, dispatch, completion
	})
	m.EndEvents()
	if allocs != 0 {
		t.Fatalf("submitAsync cycle allocated %.1f objects/op, want 0", allocs)
	}
}

// TestPrefetchSubmitAllocFree pins submitAsync with a page to drop on
// failure (the prefetch path): the asyncReq is its own completion, so
// the cycle allocates no func(error) and no completion closure.
func TestPrefetchSubmitAllocFree(t *testing.T) {
	m := newMount(t, 64, 0)
	loop := sim.NewEventLoop(0)
	if err := m.BeginEvents(loop); err != nil {
		t.Fatal(err)
	}
	loop.Reserve(64)
	id := fs.MetaPage(512)
	req := device.Request{Op: device.Read, LBA: blockLBA(512), Sectors: sectorsPerBlock, Owner: device.OwnerNone}
	cycle := func() {
		if err := m.submitAsync(loop.Now(), req, &id); err != nil {
			t.Fatal(err)
		}
		loop.Run()
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	m.EndEvents()
	if allocs != 0 {
		t.Fatalf("prefetch submit cycle allocated %.1f objects/op, want 0", allocs)
	}
}

// gatedProc starts a process bound to m that runs body once per call
// of the returned cycle: the process wakes from a gate, runs body
// through whatever parks it takes, and parks on the gate again, with
// the loop run dry. That makes one event-mode submission cycle
// measurable by testing.AllocsPerRun from the loop's side. stop ends
// the process.
func gatedProc(m *Mount, loop *sim.EventLoop, body func(p *sim.Proc)) (cycle, stop func()) {
	var gate sim.WaitList
	done := false
	loop.Go(loop.Now(), func(p *sim.Proc) {
		for {
			gate.Park(p)
			if done {
				return
			}
			m.SetProc(p, 1)
			body(p)
		}
	})
	loop.Run() // park on the gate; the idle write-back daemon exits
	cycle = func() {
		gate.WakeOne()
		loop.Run()
	}
	stop = func() {
		done = true
		cycle()
	}
	return cycle, stop
}

// TestSubmitSyncAllocFree pins one event-mode submitSync cycle — park
// on the request, complete, unpark — at zero allocations: the pooled
// ioWaiter replaced the per-request completion closure.
func TestSubmitSyncAllocFree(t *testing.T) {
	m := newMount(t, 64, 0)
	loop := sim.NewEventLoop(0)
	if err := m.BeginEvents(loop); err != nil {
		t.Fatal(err)
	}
	loop.Reserve(64)
	req := device.Request{Op: device.Read, LBA: 4096, Sectors: sectorsPerBlock, Owner: device.OwnerNone}
	cycle, stop := gatedProc(m, loop, func(p *sim.Proc) {
		if _, err := m.submitSync(p.Now(), req); err != nil {
			t.Error(err)
		}
	})
	for i := 0; i < 4; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	stop()
	m.EndEvents()
	if allocs != 0 {
		t.Fatalf("submitSync cycle allocated %.1f objects/op, want 0", allocs)
	}
}

// TestSubmitBatchSyncAllocFree pins one submitBatchSync of n requests
// at zero allocations: the whole batch completes through one pooled
// ioWaiter instead of a closure per request.
func TestSubmitBatchSyncAllocFree(t *testing.T) {
	const n = 16
	m := newMount(t, 64, 0)
	loop := sim.NewEventLoop(0)
	if err := m.BeginEvents(loop); err != nil {
		t.Fatal(err)
	}
	loop.Reserve(64)
	reqs := make([]device.Request, n)
	for i := range reqs {
		reqs[i] = device.Request{Op: device.Write, LBA: int64(i) * 8192, Sectors: sectorsPerBlock, Owner: device.OwnerNone}
	}
	cycle, stop := gatedProc(m, loop, func(p *sim.Proc) {
		if _, err := m.submitBatchSync(p.Now(), reqs); err != nil {
			t.Error(err)
		}
	})
	for i := 0; i < 4; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, cycle)
	stop()
	m.EndEvents()
	if allocs != 0 {
		t.Fatalf("submitBatchSync of %d allocated %.1f objects/op, want 0", n, allocs)
	}
}

// TestFlushBatchAllocFree pins one write-back round of n pages —
// collect, mark write-back, submit, complete, end write-back — at zero
// allocations per page: each page completes through a pooled wbDone,
// and waking the (empty) dirty-wait list reuses its array.
func TestFlushBatchAllocFree(t *testing.T) {
	const n = 64
	m := newMount(t, 256, 0)
	loop := sim.NewEventLoop(0)
	if err := m.BeginEvents(loop); err != nil {
		t.Fatal(err)
	}
	loop.Reserve(2 * n)
	for b := int64(0); b < n; b++ {
		m.PC.Insert(fs.MetaPage(1024+b), true)
	}
	round := func() {
		for b := int64(0); b < n; b++ {
			m.PC.MarkDirty(fs.MetaPage(1024 + b))
		}
		if got := m.flushBatch(loop.Now()); got != n {
			t.Fatalf("flushBatch issued %d writes, want %d", got, n)
		}
		loop.Run()
	}
	for i := 0; i < 4; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(50, round)
	m.EndEvents()
	if perPage := allocs / n; perPage != 0 {
		t.Fatalf("flushBatch allocated %.2f objects/page, want 0", perPage)
	}
}

// TestMountWakeAllocFree pins flushSync's deferred wake: the mount
// itself is the event target, so scheduling the dirty-waiter wake
// costs zero allocations.
func TestMountWakeAllocFree(t *testing.T) {
	m := newMount(t, 64, 0)
	loop := sim.NewEventLoop(0)
	if err := m.BeginEvents(loop); err != nil {
		t.Fatal(err)
	}
	loop.Reserve(16)
	allocs := testing.AllocsPerRun(200, func() {
		loop.ScheduleTarget(loop.Now()+1, m)
		loop.Step()
	})
	m.EndEvents()
	if allocs != 0 {
		t.Fatalf("mount wake scheduling allocated %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkSubmitAsyncAlloc reports the hot path's allocation rate
// for the CI bench artifacts, alongside sim's BenchmarkScheduleAlloc.
func BenchmarkSubmitAsyncAlloc(b *testing.B) {
	m := newMount(b, 64, 0)
	loop := sim.NewEventLoop(0)
	if err := m.BeginEvents(loop); err != nil {
		b.Fatal(err)
	}
	loop.Reserve(64)
	req := device.Request{Op: device.Write, LBA: 4096, Sectors: 8, Owner: device.OwnerNone}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.submitAsync(loop.Now(), req, nil); err != nil {
			b.Fatal(err)
		}
		loop.Run()
	}
	m.EndEvents()
}
