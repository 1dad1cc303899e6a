package sim

import (
	"fmt"
	"testing"
)

// TestWaitListWakeOrder: WakeOne wakes the longest-parked process, and
// WakeAll wakes everyone parked at the call in park order — a process
// that parks again while WakeAll runs waits for the next wake.
func TestWaitListWakeOrder(t *testing.T) {
	l := NewEventLoop(0)
	var w WaitList
	var woken []string
	for i := 0; i < 3; i++ {
		l.Go(Time(i), func(p *Proc) {
			w.Park(p)
			woken = append(woken, fmt.Sprint(i))
			if i == 1 {
				w.Park(p) // back onto a fresh list
				woken = append(woken, "1 again")
			}
		})
	}
	l.Schedule(10, w.WakeOne)
	l.Schedule(20, w.WakeAll)
	l.Schedule(30, func() {
		if w.q.len() != 1 {
			t.Errorf("%d parked after WakeAll, want 1 (the re-parked process)", w.q.len())
		}
		w.WakeAll()
	})
	l.Run()
	if got, want := fmt.Sprint(woken), "[0 1 2 1 again]"; got != want {
		t.Errorf("wake order %s, want %s", got, want)
	}
}

// TestBacklogServesInOrderAndDrains: two workers take pushed items in
// FIFO order, each starting no earlier than the item's push time;
// closing the backlog lets idle workers exit so the loop drains.
func TestBacklogServesInOrderAndDrains(t *testing.T) {
	l := NewEventLoop(0)
	var b Backlog[int]
	var served []string
	exited := 0
	for w := 0; w < 2; w++ {
		l.Go(0, func(p *Proc) {
			defer func() { exited++ }()
			now := Time(0)
			for {
				var ok bool
				if now, ok = b.Wait(p, now); !ok {
					return
				}
				item := b.Pop()
				served = append(served, fmt.Sprintf("w%d:%d@%d", w, item, now))
				now = p.WaitUntil(now + 15) // service time
			}
		})
	}
	l.Go(0, func(p *Proc) {
		defer b.Close()
		for i := 1; i <= 3; i++ {
			p.WaitUntil(Time(10 * i))
			b.Push(i)
		}
	})
	l.Run()
	if got, want := fmt.Sprint(served), "[w0:1@10 w1:2@20 w0:3@30]"; got != want {
		t.Errorf("served %s, want %s", got, want)
	}
	if exited != 2 || b.q.len() != 0 {
		t.Errorf("%d workers exited with %d items queued, want 2 and 0", exited, b.q.len())
	}
}

// TestFifoCompactsWithoutDraining: a queue that never drains keeps FIFO
// order and reuses its array instead of growing with every push.
func TestFifoCompactsWithoutDraining(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	for ; next < 3; next++ {
		q.push(next)
	}
	for ; next < 1000; next++ {
		q.push(next)
		if got := q.pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	if q.len() != 3 || cap(q.items) > 8 {
		t.Errorf("%d live items in an array of %d, want 3 in at most 8", q.len(), cap(q.items))
	}
}

// TestWaitListNestedWakeAll: a woken process that calls WakeAll on the
// same list wakes whoever re-parked since the outer WakeAll began, in
// park order, while the outer call still wakes the rest of its own
// snapshot; no parked process is lost. A first WakeAll leaves a spare
// array behind, so the outer call runs on the recycled path.
func TestWaitListNestedWakeAll(t *testing.T) {
	l := NewEventLoop(0)
	var w WaitList
	var woken []string
	finished := 0
	park := func(p *Proc, tag string) {
		w.Park(p)
		woken = append(woken, tag)
	}
	l.Go(0, func(p *Proc) {
		defer func() { finished++ }()
		park(p, "0 warm")
		park(p, "0")
		park(p, "0 again")
		park(p, "0 third")
	})
	l.Go(1, func(p *Proc) {
		defer func() { finished++ }()
		park(p, "1 warm")
		park(p, "1")
		w.WakeAll() // nested: wakes 0, which re-parked after "0"
		woken = append(woken, "1 after nested")
	})
	l.Go(2, func(p *Proc) {
		defer func() { finished++ }()
		park(p, "2 warm")
		park(p, "2")
		park(p, "2 again")
	})
	l.Schedule(10, w.WakeAll) // warm-up: every process re-parks
	l.Schedule(20, w.WakeAll) // outer: 1 nests a WakeAll inside it
	l.Schedule(30, func() {
		if w.q.len() != 2 {
			t.Errorf("%d parked after the nested wake, want 2 (0 and 2)", w.q.len())
		}
		w.WakeAll()
	})
	l.Run()
	want := "[0 warm 1 warm 2 warm 0 1 0 again 1 after nested 2 0 third 2 again]"
	if got := fmt.Sprint(woken); got != want {
		t.Errorf("wake order %s, want %s", got, want)
	}
	if finished != 3 || w.q.len() != 0 {
		t.Errorf("%d of 3 processes finished, %d still parked", finished, w.q.len())
	}
}

// TestWakeAllAllocFree pins the Park → WakeAll → re-Park cycle at zero
// allocations: WakeAll hands the list the array the previous WakeAll
// drained, so re-parking processes never grow a fresh one.
func TestWakeAllAllocFree(t *testing.T) {
	l := NewEventLoop(0)
	var w WaitList
	stop := false
	for i := 0; i < 8; i++ {
		l.Go(0, func(p *Proc) {
			for !stop {
				w.Park(p)
			}
		})
	}
	l.Run()
	for i := 0; i < 4; i++ {
		w.WakeAll()
	}
	allocs := testing.AllocsPerRun(200, w.WakeAll)
	stop = true
	w.WakeAll()
	if allocs != 0 {
		t.Fatalf("WakeAll cycle allocated %.1f objects/op, want 0", allocs)
	}
	if w.q.len() != 0 {
		t.Fatalf("%d processes still parked", w.q.len())
	}
}
