package device

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// deceptiveIdleness runs the workload anticipatory scheduling exists
// for: owner 1 is a synchronous sequential reader — each next read is
// submitted a short think time after the previous completes, so its
// queue looks empty at every completion — while owner 2 keeps a deep
// random backlog. It returns owner 1's finish time, the full
// completion trace (for determinism checks), and the queue stats.
func deceptiveIdleness(t *testing.T, schedName string) (sim.Time, string, QueueStats) {
	t.Helper()
	q, loop := mkQueue(t, schedName, 32)
	var trace string
	var seqDone sim.Time

	// Owner 1: 20 dependent sequential reads with 1ms think time —
	// well inside cfq-idle's grace, invisible to plain cfq. Submitted
	// first so owner 1 heads the service ring.
	const think = sim.Millisecond
	var next func(i int) func(done sim.Time, err error)
	submit := func(at sim.Time, i int) {
		q.Submit(at, Request{Op: Read, LBA: int64(i) * 64, Sectors: 8, Owner: 1}, next(i))
	}
	next = func(i int) func(done sim.Time, err error) {
		return func(done sim.Time, err error) {
			if err != nil {
				t.Fatal(err)
			}
			trace += fmt.Sprintf("a@%d ", done)
			seqDone = done
			if i+1 < 20 {
				loop.Schedule(done+think, func() { submit(loop.Now(), i+1) })
			}
		}
	}
	submit(0, 0)

	// Owner 2: 24 scattered reads, all queued at t=0. The backlog
	// stays inside the depth-32 scheduler window — overflow would push
	// owner 1's later arrivals into the FIFO admission backlog, where
	// no scheduler policy can help them.
	for i := 0; i < 24; i++ {
		lba := int64(1+i*7919%97) * 3_000_000
		q.Submit(0, Request{Op: Read, LBA: lba, Sectors: 8, Owner: 2},
			func(done sim.Time, err error) {
				if err != nil {
					t.Fatal(err)
				}
				trace += fmt.Sprintf("b@%d ", done)
			})
	}

	loop.Run()
	s := q.Stats()
	if s.Completed != 44 {
		t.Fatalf("%s: completed %d of 44", schedName, s.Completed)
	}
	return seqDone, trace, s
}

// TestCFQIdleBeatsCFQOnDeceptiveIdleness is the satellite's payoff
// regression: anticipatory idling must protect the synchronous reader
// from donating a slice (and two long seeks) to the backlog owner on
// every think pause. Plain cfq serves owner 1 roughly once per
// competitor slice; cfq-idle lets it stream.
func TestCFQIdleBeatsCFQOnDeceptiveIdleness(t *testing.T) {
	idle, _, idleStats := deceptiveIdleness(t, SchedCFQIdle)
	plain, _, plainStats := deceptiveIdleness(t, SchedCFQ)
	if idle*2 >= plain {
		t.Errorf("cfq-idle finished the sync reader at %v, cfq at %v: want >2x improvement",
			idle, plain)
	}
	if iw, pw := meanWait(idleStats.PerOwner[1]), meanWait(plainStats.PerOwner[1]); iw >= pw {
		t.Errorf("owner 1 mean wait: cfq-idle %v not below cfq %v", iw, pw)
	}
	// The backlog owner still finishes — idling trades at most one
	// grace per slice, it must not starve the competitor.
	if plainStats.PerOwner[2].Completed != 24 || idleStats.PerOwner[2].Completed != 24 {
		t.Error("backlog owner did not finish under one of the schedulers")
	}
}

// TestCFQIdleDeterministic pins the idling scheduler's full
// completion trace across repeated same-seed runs: the kick timer
// path must be as replayable as the synchronous path.
func TestCFQIdleDeterministic(t *testing.T) {
	_, first, _ := deceptiveIdleness(t, SchedCFQIdle)
	for i := 0; i < 3; i++ {
		if _, got, _ := deceptiveIdleness(t, SchedCFQIdle); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestCFQIdleGraceExpiryReleasesSlice: when the anticipated request
// never arrives, the grace timer's kick must hand the device to the
// waiting owner — a missing kick would deadlock the queue with work
// pending.
func TestCFQIdleGraceExpiryReleasesSlice(t *testing.T) {
	q, loop := mkQueue(t, SchedCFQIdle, 8)
	var order []string
	done := func(tag string) func(sim.Time, error) {
		return func(d sim.Time, err error) {
			if err != nil {
				t.Fatal(err)
			}
			order = append(order, fmt.Sprintf("%s@%d", tag, d))
		}
	}
	// Owner 1 submits exactly one request and departs. Owner 2's
	// request arrives while the device is busy serving owner 1, then
	// must wait out the grace before dispatch.
	q.Submit(0, Request{Op: Read, LBA: 0, Sectors: 8, Owner: 1}, done("a"))
	q.Submit(sim.Millisecond, Request{Op: Read, LBA: 200_000_000, Sectors: 8, Owner: 2}, done("b"))
	loop.Run()
	if len(order) != 2 || order[0][0] != 'a' || order[1][0] != 'b' {
		t.Fatalf("completion order %v, want a then b", order)
	}
	if pending(q) != 0 {
		t.Fatalf("queue not drained: %d pending", pending(q))
	}
	s := q.Stats()
	// Owner 2's wait must include (most of) the grace: the idling
	// really happened and really ended.
	if s.PerOwner[2].Wait < cfqIdleGrace/2 {
		t.Errorf("owner 2 waited %v, want at least half the %v grace", s.PerOwner[2].Wait, cfqIdleGrace)
	}
}

// TestCFQIdleNameAndRegistration pins the new scheduler's registry
// entry and the invariant that "cfq" itself did not grow idling —
// warehouse baselines recorded under cfq must not drift.
func TestCFQIdleNameAndRegistration(t *testing.T) {
	s, err := NewScheduler(SchedCFQIdle)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != SchedCFQIdle {
		t.Fatalf("Name() = %q, want %q", s.Name(), SchedCFQIdle)
	}
	if _, ok := s.(IdleHint); !ok {
		t.Fatal("cfq-idle does not implement IdleHint")
	}
	plain, err := NewScheduler(SchedCFQ)
	if err != nil {
		t.Fatal(err)
	}
	if plain.(*cfq).grace != 0 {
		t.Fatal("plain cfq grew an idle grace: committed cfq baselines would drift")
	}
}
