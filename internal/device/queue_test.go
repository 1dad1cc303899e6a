package device

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// pending counts requests submitted but not yet completed: queued
// plus in service.
func pending(q *Queue) int { return q.queued() + q.inflight }

// meanWait is the average queueing delay per completed request.
func meanWait(s OwnerQueueStats) sim.Time {
	if s.Completed == 0 {
		return 0
	}
	return s.Wait / sim.Time(s.Completed)
}

func mkQueue(t testing.TB, schedName string, depth int) (*Queue, *sim.EventLoop) {
	t.Helper()
	sched, err := NewScheduler(schedName)
	if err != nil {
		t.Fatal(err)
	}
	loop := sim.NewEventLoop(0)
	return NewQueue(NewHDD(DefaultHDD(), sim.NewRNG(1)), sched, depth, loop), loop
}

func TestNewSchedulerNames(t *testing.T) {
	for _, name := range []string{"", SchedFCFS, SchedElevator, SchedNCQ, SchedCFQ} {
		s, err := NewScheduler(name)
		if err != nil {
			t.Errorf("NewScheduler(%q): %v", name, err)
			continue
		}
		if name != "" && s.Name() != name {
			t.Errorf("NewScheduler(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := NewScheduler("deadline"); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// completionOrder submits scattered requests at t=0 and reports the
// order their completions fire.
func completionOrder(t *testing.T, schedName string, depth int, lbas []int64) []int64 {
	t.Helper()
	q, loop := mkQueue(t, schedName, depth)
	var order []int64
	for _, lba := range lbas {
		lba := lba
		q.Submit(0, Request{Op: Read, LBA: lba, Sectors: 8}, CompleteFunc(func(done sim.Time, err error) {
			if err != nil {
				t.Fatal(err)
			}
			order = append(order, lba)
		}))
	}
	loop.Run()
	if pending(q) != 0 {
		t.Fatalf("queue not drained: %d pending", pending(q))
	}
	return order
}

func TestFCFSPreservesArrivalOrder(t *testing.T) {
	lbas := []int64{500000, 100, 900000, 40000, 700}
	order := completionOrder(t, SchedFCFS, 32, lbas)
	if fmt.Sprint(order) != fmt.Sprint(lbas) {
		t.Errorf("fcfs order = %v, want arrival order %v", order, lbas)
	}
}

func TestElevatorSortsByLBA(t *testing.T) {
	lbas := []int64{500000, 100, 900000, 40000, 700}
	order := completionOrder(t, SchedElevator, 32, lbas)
	// The first request dispatches immediately (queue empty, head 0);
	// the rest are serviced in ascending LBA order from there.
	want := []int64{500000, 700000 - 200000} // placeholder, computed below
	_ = want
	rest := order[1:]
	for i := 1; i < len(rest); i++ {
		if rest[i-1] >= rest[i] && rest[i-1] < 900000 {
			// ascending until the C-LOOK wrap
			t.Fatalf("elevator order not an ascending sweep: %v", order)
		}
	}
	if order[0] != 500000 {
		t.Fatalf("first-submitted request should dispatch immediately, got %v", order)
	}
}

func TestElevatorWrapsCLook(t *testing.T) {
	// Head ends past 900000 after the initial dispatch sequence; a
	// window holding only lower LBAs must wrap to the lowest.
	q, loop := mkQueue(t, SchedElevator, 32)
	var order []int64
	submit := func(lba int64) {
		q.Submit(0, Request{Op: Read, LBA: lba, Sectors: 8}, CompleteFunc(func(done sim.Time, err error) {
			order = append(order, lba)
		}))
	}
	submit(900000) // dispatches immediately, head -> 900008
	submit(300)
	submit(200)
	submit(100)
	loop.Run()
	if fmt.Sprint(order) != fmt.Sprint([]int64{900000, 100, 200, 300}) {
		t.Errorf("C-LOOK wrap order = %v, want [900000 100 200 300]", order)
	}
}

func TestNCQPicksNearest(t *testing.T) {
	q, loop := mkQueue(t, SchedNCQ, 32)
	var order []int64
	submit := func(lba int64) {
		q.Submit(0, Request{Op: Read, LBA: lba, Sectors: 8}, CompleteFunc(func(done sim.Time, err error) {
			order = append(order, lba)
		}))
	}
	submit(500000) // dispatches immediately, head -> 500008
	submit(100)    // far
	submit(499000) // near the head: must be serviced next
	loop.Run()
	if fmt.Sprint(order) != fmt.Sprint([]int64{500000, 499000, 100}) {
		t.Errorf("ncq order = %v, want nearest-first [500000 499000 100]", order)
	}
}

func TestNCQAntiStarvation(t *testing.T) {
	// A lone far request must eventually be serviced even under a
	// steady stream of near requests.
	q, loop := mkQueue(t, SchedNCQ, 64)
	var farDone sim.Time
	q.Submit(0, Request{Op: Read, LBA: 1, Sectors: 8}, CompleteFunc(func(done sim.Time, err error) {}))
	q.Submit(0, Request{Op: Read, LBA: 400_000_000, Sectors: 8}, CompleteFunc(func(done sim.Time, err error) {
		farDone = done
	}))
	// Feed near-LBA requests for a long time.
	var feed func(i int)
	feed = func(i int) {
		if i >= 400 {
			return
		}
		q.Submit(loop.Now(), Request{Op: Read, LBA: int64(i * 16), Sectors: 8}, CompleteFunc(func(done sim.Time, err error) {
			feed(i + 1)
		}))
	}
	feed(2)
	loop.Run()
	if farDone == 0 {
		t.Fatal("far request starved forever")
	}
	if farDone > ncqStarveLimit+sim.Second {
		t.Errorf("far request waited %v; anti-starvation should cap near %v", farDone, ncqStarveLimit)
	}
}

func TestQueueDepthBoundsReordering(t *testing.T) {
	// At depth 1 every scheduler degenerates to FCFS.
	lbas := []int64{500000, 100, 900000, 40000, 700}
	for _, name := range []string{SchedFCFS, SchedElevator, SchedNCQ} {
		order := completionOrder(t, name, 1, lbas)
		if fmt.Sprint(order) != fmt.Sprint(lbas) {
			t.Errorf("%s at depth 1: order = %v, want arrival order", name, order)
		}
	}
}

func TestQueueBacklogAdmission(t *testing.T) {
	q, loop := mkQueue(t, SchedElevator, 2)
	n := 0
	for i := 0; i < 20; i++ {
		q.Submit(0, Request{Op: Read, LBA: int64(i) * 1000, Sectors: 8}, CompleteFunc(func(done sim.Time, err error) {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}))
	}
	// 20 submitted, one dispatched immediately: the high-water mark
	// counts window + backlog occupancy, excluding the one in flight.
	if got := q.Stats().MaxQueued; got != 19 {
		t.Errorf("MaxQueued = %d, want 19", got)
	}
	loop.Run()
	if n != 20 {
		t.Fatalf("completed %d of 20", n)
	}
	if q.Stats().Completed != 20 || pending(q) != 0 {
		t.Fatalf("stats = %+v, pending = %d", q.Stats(), pending(q))
	}
	if q.Stats().Wait == 0 {
		t.Error("no queueing delay recorded for a 20-deep burst")
	}
}

func TestQueueElevatorBeatsFCFSUnderLoad(t *testing.T) {
	finish := func(schedName string, depth int) sim.Time {
		sched, _ := NewScheduler(schedName)
		loop := sim.NewEventLoop(0)
		q := NewQueue(NewHDD(DefaultHDD(), sim.NewRNG(7)), sched, depth, loop)
		rng := sim.NewRNG(8)
		var last sim.Time
		for i := 0; i < 128; i++ {
			q.Submit(0, Request{Op: Read, LBA: rng.Int63n(1 << 28), Sectors: 8},
				CompleteFunc(func(done sim.Time, err error) {
					if done > last {
						last = done
					}
				}))
		}
		loop.Run()
		return last
	}
	fcfsT := finish(SchedFCFS, 32)
	elevT := finish(SchedElevator, 32)
	ncqT := finish(SchedNCQ, 32)
	if elevT >= fcfsT {
		t.Errorf("elevator (%v) not faster than fcfs (%v) on scattered load", elevT, fcfsT)
	}
	if ncqT >= fcfsT {
		t.Errorf("ncq (%v) not faster than fcfs (%v) on scattered load", ncqT, fcfsT)
	}
}

func TestQueueErrorCompletes(t *testing.T) {
	q, loop := mkQueue(t, SchedFCFS, 8)
	var gotErr error
	okDone := false
	q.Submit(0, Request{Op: Read, LBA: -5, Sectors: 8}, CompleteFunc(func(done sim.Time, err error) {
		gotErr = err
	}))
	q.Submit(0, Request{Op: Read, LBA: 0, Sectors: 8}, CompleteFunc(func(done sim.Time, err error) {
		okDone = err == nil
	}))
	loop.Run()
	if !errors.Is(gotErr, ErrOutOfRange) {
		t.Errorf("bad request completed with %v, want ErrOutOfRange", gotErr)
	}
	if !okDone {
		t.Error("good request behind a bad one never completed")
	}
	if q.Stats().Errors != 1 {
		t.Errorf("queue errors = %d, want 1", q.Stats().Errors)
	}
}

// TestMaxQueuedExcludesInFlight pins the MaxQueued semantics against a
// multi-channel device, where the distinction matters most: with K
// requests in service, the high-water mark reflects only requests
// still awaiting dispatch.
func TestMaxQueuedExcludesInFlight(t *testing.T) {
	q, loop := mkNVMeQueue(t, 4, 32, SchedFCFS)
	for i := 0; i < 4; i++ {
		q.Submit(0, Request{Op: Read, LBA: int64(i) * 4096, Sectors: 8}, nil)
	}
	// Four submissions onto four idle channels: nothing ever waited
	// for dispatch.
	if got := q.Stats().MaxQueued; got != 0 {
		t.Errorf("MaxQueued = %d after instant dispatches, want 0", got)
	}
	for i := 4; i < 10; i++ {
		q.Submit(0, Request{Op: Read, LBA: int64(i) * 4096, Sectors: 8}, nil)
	}
	// 10 submitted, 4 dispatched straight onto the channels: 6 wait.
	if got := q.Stats().MaxQueued; got != 6 {
		t.Errorf("MaxQueued = %d, want 6 (10 submitted - 4 in flight)", got)
	}
	if got := pending(q); got != 10 {
		t.Errorf("Pending = %d, want 10 (queued + in flight)", got)
	}
	loop.Run()
}

// TestQueueErrorsNotCompleted is the accounting regression: a request
// the device rejects at dispatch consumes no service time, so it must
// count only under Errors — folding it into Completed (and its
// queueing delay into Wait) skewed MeanWait toward zero for every
// workload on a faulty device.
func TestQueueErrorsNotCompleted(t *testing.T) {
	sched, _ := NewScheduler(SchedFCFS)
	loop := sim.NewEventLoop(0)
	faulty := NewFaulty(NewHDD(DefaultHDD(), sim.NewRNG(1)),
		FaultPolicy{BadRanges: []SectorRange{{First: 1 << 20, Count: 1 << 20}}}, sim.NewRNG(2))
	q := NewQueue(faulty, sched, 8, loop)

	var doneA sim.Time
	var errB error
	// A dispatches immediately and occupies the device; B (bad range)
	// and C queue behind it, both accruing queueing delay until A
	// completes.
	q.Submit(0, Request{Op: Read, LBA: 0, Sectors: 8}, CompleteFunc(func(d sim.Time, err error) { doneA = d }))
	q.Submit(0, Request{Op: Read, LBA: 1 << 20, Sectors: 8}, CompleteFunc(func(d sim.Time, err error) { errB = err }))
	q.Submit(0, Request{Op: Read, LBA: 4096, Sectors: 8}, nil)
	loop.Run()

	if !errors.Is(errB, ErrIO) {
		t.Fatalf("bad-range request completed with %v, want ErrIO", errB)
	}
	s := q.Stats()
	if s.Submitted != 3 || s.Completed != 2 || s.Errors != 1 {
		t.Errorf("stats = submitted %d completed %d errors %d, want 3/2/1",
			s.Submitted, s.Completed, s.Errors)
	}
	// Only C waited (for A's full service); B's dispatch-time delay
	// must not be in Wait even though it queued just as long.
	if s.Wait != doneA {
		t.Errorf("Wait = %v, want exactly C's delay %v (errored B excluded)", s.Wait, doneA)
	}
	if got := meanWait(OwnerQueueStats{Completed: s.Completed, Wait: s.Wait}); got != doneA/2 {
		t.Errorf("MeanWait = %v, want %v over the 2 completed requests", got, doneA/2)
	}
}

// TestQueuePerOwnerWait pins the per-owner attribution arithmetic:
// owner waits sum to the aggregate and completions split per
// requester.
func TestQueuePerOwnerWait(t *testing.T) {
	q, loop := mkQueue(t, SchedFCFS, 8)
	for i := 0; i < 6; i++ {
		q.Submit(0, Request{Op: Read, LBA: int64(i) * 100000, Sectors: 8, Owner: 1 + i%2}, nil)
	}
	loop.Run()
	s := q.Stats()
	if got := fmt.Sprint(s.Owners()); got != "[1 2]" {
		t.Fatalf("Owners() = %v, want [1 2]", got)
	}
	var wait sim.Time
	var completed int64
	for _, o := range s.Owners() {
		wait += s.PerOwner[o].Wait
		completed += s.PerOwner[o].Completed
	}
	if wait != s.Wait || completed != s.Completed {
		t.Errorf("per-owner totals wait=%v completed=%d, want aggregate wait=%v completed=%d",
			wait, completed, s.Wait, s.Completed)
	}
	if s.PerOwner[1].Completed != 3 || s.PerOwner[2].Completed != 3 {
		t.Errorf("per-owner completions = %d/%d, want 3/3",
			s.PerOwner[1].Completed, s.PerOwner[2].Completed)
	}
	if meanWait(s.PerOwner[2]) <= meanWait(s.PerOwner[1]) {
		t.Errorf("FCFS interleave: owner 2 (always behind owner 1) should wait more: %v vs %v",
			meanWait(s.PerOwner[2]), meanWait(s.PerOwner[1]))
	}
}

// TestQueuePerOwnerWaitSpreadCFQvsNCQ separates scheduler-induced
// waiting from service time, per owner: on a two-owner near/far stripe
// split, NCQ's seek greed makes the far owner absorb nearly all the
// queueing delay, while CFQ's time slices split it far more evenly.
// This is the queue-level view of the fairness figure.
func TestQueuePerOwnerWaitSpreadCFQvsNCQ(t *testing.T) {
	spread := func(schedName string) float64 {
		q, loop := mkQueue(t, schedName, 32)
		// Interleaved arrivals: owner 1 reads near the head, owner 2
		// reads a far stripe. Both submit 16 requests at t=0.
		for i := 0; i < 16; i++ {
			q.Submit(0, Request{Op: Read, LBA: int64(i) * 64, Sectors: 8, Owner: 1}, nil)
			q.Submit(0, Request{Op: Read, LBA: 300_000_000 + int64(i)*64, Sectors: 8, Owner: 2}, nil)
		}
		loop.Run()
		s := q.Stats()
		if s.Completed != 32 {
			t.Fatalf("%s: completed %d of 32", schedName, s.Completed)
		}
		near, far := meanWait(s.PerOwner[1]), meanWait(s.PerOwner[2])
		if near == 0 || far == 0 {
			t.Fatalf("%s: owner mean wait missing: near=%v far=%v", schedName, near, far)
		}
		if far > near {
			return float64(far) / float64(near)
		}
		return float64(near) / float64(far)
	}
	ncq := spread(SchedNCQ)
	cfq := spread(SchedCFQ)
	if ncq <= cfq {
		t.Errorf("per-owner wait spread: ncq %.2fx not above cfq %.2fx", ncq, cfq)
	}
	if ncq < 2 {
		t.Errorf("ncq far/near mean-wait ratio %.2fx: seek greed should starve the far stripe", ncq)
	}
}

// TestQueueErrorFromProcContext is the deadlock regression: a process
// submitting a request that errors synchronously (validation failure
// on an idle device) must still be woken by a loop-context completion
// — an inline callback would Unpark the proc before it parked and
// hang the simulation.
func TestQueueErrorFromProcContext(t *testing.T) {
	q, loop := mkQueue(t, SchedNCQ, 8)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		loop.Go(0, func(p *sim.Proc) {
			var gotErr error
			q.Submit(p.Now(), Request{Op: Read, LBA: -1, Sectors: 8},
				CompleteFunc(func(done sim.Time, err error) {
					gotErr = err
					p.Unpark()
				}))
			p.Park()
			if !errors.Is(gotErr, ErrOutOfRange) {
				t.Errorf("woke with %v, want ErrOutOfRange", gotErr)
			}
		})
		loop.Run()
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("loop deadlocked on synchronous error completion")
	}
}

func TestQueueDeterminism(t *testing.T) {
	run := func(schedName string) string {
		sched, _ := NewScheduler(schedName)
		loop := sim.NewEventLoop(0)
		q := NewQueue(NewHDD(DefaultHDD(), sim.NewRNG(42)), sched, 16, loop)
		rng := sim.NewRNG(43)
		var trace string
		for i := 0; i < 200; i++ {
			lba := rng.Int63n(1 << 28)
			q.Submit(loop.Now(), Request{Op: Read, LBA: lba, Sectors: 8},
				CompleteFunc(func(done sim.Time, err error) {
					trace += fmt.Sprintf("%d@%d ", lba, done)
				}))
		}
		loop.Run()
		return trace
	}
	for _, name := range []string{SchedFCFS, SchedElevator, SchedNCQ} {
		if a, b := run(name), run(name); a != b {
			t.Errorf("%s: same-seed runs differ", name)
		}
	}
}

// TestNCQStarvationPromotesFarRequest is the Pop-level anti-starvation
// contract: once a far-LBA request has waited past ncqStarveLimit, the
// scheduler must promote it ahead of strictly nearer arrivals instead
// of bypassing it one more time.
func TestNCQStarvationPromotesFarRequest(t *testing.T) {
	s, err := NewScheduler(SchedNCQ)
	if err != nil {
		t.Fatal(err)
	}
	far := &IORequest{Req: Request{Op: Read, LBA: 1 << 30, Sectors: 8}, At: 0, Seq: 0}
	s.Push(far)
	near := &IORequest{Req: Request{Op: Read, LBA: 8, Sectors: 8}, At: sim.Second, Seq: 1}
	s.Push(near)
	// Before the deadline the nearer request wins (head at 0).
	if got := s.Pop(sim.Second, 0); got != near {
		t.Fatalf("pre-deadline Pop = %+v, want the near request", got.Req)
	}
	s.Push(near)
	// Past the deadline the starved far request must be serviced even
	// though the near one is still closer to the head.
	if got := s.Pop(ncqStarveLimit+sim.Second, 0); got != far {
		t.Fatalf("post-deadline Pop = %+v, want the starved far request", got.Req)
	}
	if got := s.Pop(ncqStarveLimit+sim.Second, 0); got != near {
		t.Fatalf("final Pop = %+v, want the near request", got.Req)
	}
}

// cfqClosedLoop drives the queue with `owners` closed-loop requesters
// (each re-issues on completion) plus a periodic bursty owner, and
// returns per-owner completion counts. This is the pattern that
// exposed the ring-cursor stranding bug: a cursor parked mid-ring by
// slice expiries never wraps while fast resubmitters keep the tail
// segment alive, so everyone behind the cursor starves forever.
func cfqClosedLoop(t *testing.T, owners int, horizon sim.Time) map[int]int {
	t.Helper()
	sched, err := NewScheduler(SchedCFQ)
	if err != nil {
		t.Fatal(err)
	}
	loop := sim.NewEventLoop(0)
	q := NewQueue(NewHDD(DefaultHDD(), sim.NewRNG(1)), sched, 32, loop)
	counts := make(map[int]int)
	var submit func(owner int, at sim.Time)
	submit = func(owner int, at sim.Time) {
		q.Submit(at, Request{Op: Read, LBA: int64(owner) * 400000, Sectors: 8, Owner: owner},
			CompleteFunc(func(done sim.Time, err error) {
				counts[owner]++
				if done < horizon {
					submit(owner, done)
				}
			}))
	}
	for o := 1; o <= owners; o++ {
		submit(o, 0)
	}
	// The bursty owner floods multi-request batches, which is what
	// makes slices expire mid-queue and exercises ring rotation.
	var burst func(at sim.Time)
	burst = func(at sim.Time) {
		if at >= horizon {
			return
		}
		loop.Schedule(at, func() {
			for i := 0; i < 48; i++ {
				q.Submit(at, Request{Op: Write, LBA: int64(i) * 1000, Sectors: 8, Owner: OwnerDaemon},
					CompleteFunc(func(done sim.Time, err error) { counts[OwnerDaemon]++ }))
			}
			burst(at + 300*sim.Millisecond)
		})
	}
	burst(200 * sim.Millisecond)
	loop.Run()
	return counts
}

// TestCFQNoOwnerStarves is the stranding regression: under closed-loop
// load with periodic daemon bursts, every owner must keep completing
// requests — the slowest owner may not fall behind the fastest by more
// than the slice-induced spread.
func TestCFQNoOwnerStarves(t *testing.T) {
	counts := cfqClosedLoop(t, 24, 3*sim.Second)
	min, max := int(^uint(0)>>1), 0
	for o := 1; o <= 24; o++ {
		if counts[o] < min {
			min = counts[o]
		}
		if counts[o] > max {
			max = counts[o]
		}
	}
	if min == 0 {
		t.Fatalf("an owner was starved outright: counts=%v", counts)
	}
	if min*3 < max {
		t.Errorf("cfq spread too wide: min=%d max=%d", min, max)
	}
	if counts[OwnerDaemon] == 0 {
		t.Error("daemon owner never serviced")
	}
}

// TestCFQSliceKeepsOwner checks the time-slice contract directly: an
// owner with several queued requests is served back-to-back within one
// slice, and the slice's expiry rotates service to the next owner.
func TestCFQSliceKeepsOwner(t *testing.T) {
	sched, _ := NewScheduler(SchedCFQ)
	push := func(owner int, seq uint64, at sim.Time) {
		sched.Push(&IORequest{Req: Request{Op: Read, LBA: int64(seq) * 100, Sectors: 8, Owner: owner}, At: at, Seq: seq})
	}
	push(1, 0, 0)
	push(1, 1, 0)
	push(2, 2, 0)
	push(2, 3, 0)
	// Within owner 1's slice both its requests pop first, FIFO.
	if r := sched.Pop(0, 0); r.Req.Owner != 1 || r.Seq != 0 {
		t.Fatalf("pop 1 = owner %d seq %d, want owner 1 seq 0", r.Req.Owner, r.Seq)
	}
	if r := sched.Pop(sim.Millisecond, 0); r.Req.Owner != 1 || r.Seq != 1 {
		t.Fatalf("pop 2 = owner %d seq %d, want owner 1 seq 1", r.Req.Owner, r.Seq)
	}
	if r := sched.Pop(2*sim.Millisecond, 0); r.Req.Owner != 2 {
		t.Fatalf("pop 3 = owner %d, want owner 2 after owner 1 drained", r.Req.Owner)
	}
	// Refill owner 1; owner 2's slice is still open, so its remaining
	// request is served first; only then does owner 1 get a new slice.
	push(1, 4, 3*sim.Millisecond)
	if r := sched.Pop(3*sim.Millisecond, 0); r.Req.Owner != 2 {
		t.Fatalf("pop 4 = owner %d, want owner 2 (slice still open)", r.Req.Owner)
	}
	if r := sched.Pop(4*sim.Millisecond, 0); r.Req.Owner != 1 {
		t.Fatalf("pop 5 = owner %d, want owner 1", r.Req.Owner)
	}
	// Slice expiry with requests left rotates the holder to the tail.
	push(1, 5, 5*sim.Millisecond)
	push(1, 6, 5*sim.Millisecond)
	push(2, 7, 5*sim.Millisecond)
	if r := sched.Pop(5*sim.Millisecond, 0); r.Req.Owner != 1 {
		t.Fatalf("pop 6 = owner %d, want owner 1 (fresh slice)", r.Req.Owner)
	}
	if r := sched.Pop(5*sim.Millisecond+2*cfqSlice, 0); r.Req.Owner != 2 {
		t.Fatalf("pop 7 = owner %d, want owner 2 after owner 1's slice expired", r.Req.Owner)
	}
	if r := sched.Pop(5*sim.Millisecond+2*cfqSlice, 0); r.Req.Owner != 1 {
		t.Fatalf("pop 8 = owner %d, want owner 1 again", r.Req.Owner)
	}
	if sched.Len() != 0 {
		t.Fatalf("scheduler not drained: %d left", sched.Len())
	}
}

// TestCFQAtDepthOneIsFCFS mirrors TestQueueDepthBoundsReordering for
// the owner-aware scheduler: with a window of 1 there is nothing to
// rotate over.
func TestCFQAtDepthOneIsFCFS(t *testing.T) {
	lbas := []int64{500000, 100, 900000, 40000, 700}
	order := completionOrder(t, SchedCFQ, 1, lbas)
	if fmt.Sprint(order) != fmt.Sprint(lbas) {
		t.Errorf("cfq at depth 1: order = %v, want arrival order", order)
	}
}
