package sim

// This file is the discrete-event kernel: a binary heap of timestamped
// events with deterministic sequence-number tie-breaking, plus Proc, a
// coroutine-backed simulated process that can block on events. See
// DESIGN.md §2 for the kernel and §4 for the determinism rules.
//
// The kernel is strictly single-baton: at any instant exactly one
// goroutine — the loop owner or the one Proc it handed control to — is
// runnable. Each Proc is an iter.Pull coroutine, so a handoff is a
// direct goroutine switch that the race detector sees as a
// happens-before edge, and shared simulation state needs no locks.

import "iter"

// EventLoop is a discrete-event scheduler under virtual time. Events
// fire in (time, sequence) order: ties at the same virtual instant
// resolve in scheduling order, which makes every run bit-identical
// regardless of host parallelism or GC behavior.
//
// The loop owns the virtual clock: now only moves forward, to the
// timestamp of each event as it fires. The zero value is a loop at
// time zero.
type EventLoop struct {
	now  Time
	heap []event
	seq  uint64
}

// event is one heap entry: either a closure (fn) or a pre-bound
// target (tgt), never both. The two forms share one sequence space,
// so mixing them cannot perturb tie-breaking.
type event struct {
	at  Time
	seq uint64
	fn  func()
	tgt EventTarget
}

// EventTarget is a pre-bound event callback. ScheduleTarget enqueues
// one without allocating: the dominant park/unpark and I/O-completion
// events on the hot path schedule a live object (a *Proc, a device
// request) whose callback is fully determined by its identity, and a
// per-event closure would only box that same pointer.
type EventTarget interface {
	// RunEvent fires the event. It runs in loop context, exactly like
	// a closure passed to Schedule.
	RunEvent()
}

// NewEventLoop returns a loop whose clock starts at the given time.
func NewEventLoop(start Time) *EventLoop { return &EventLoop{now: start} }

// Now reports the loop's current virtual time.
func (l *EventLoop) Now() Time { return l.now }

// Schedule enqueues fn to run at virtual time at. Times in the past
// are clamped to now: an event can never rewind the clock.
func (l *EventLoop) Schedule(at Time, fn func()) {
	if at < l.now {
		at = l.now
	}
	l.heap = append(l.heap, event{at: at, seq: l.seq, fn: fn})
	l.seq++
	l.up(len(l.heap) - 1)
}

// ScheduleTarget enqueues tgt.RunEvent to run at virtual time at,
// with the same past-clamping as Schedule but without allocating a
// closure. With a Reserved heap the call is allocation-free.
func (l *EventLoop) ScheduleTarget(at Time, tgt EventTarget) {
	if at < l.now {
		at = l.now
	}
	l.heap = append(l.heap, event{at: at, seq: l.seq, tgt: tgt})
	l.seq++
	l.up(len(l.heap) - 1)
}

// Reserve grows the heap's capacity to hold at least n pending events
// without reallocating — call it before spawning a known population of
// processes so the measured phase never pays append growth.
func (l *EventLoop) Reserve(n int) {
	if cap(l.heap) >= n {
		return
	}
	heap := make([]event, len(l.heap), n)
	copy(heap, l.heap)
	l.heap = heap
}

// Step pops and runs the earliest event, advancing the clock to its
// timestamp. It reports whether an event ran.
func (l *EventLoop) Step() bool {
	if len(l.heap) == 0 {
		return false
	}
	ev := l.heap[0]
	n := len(l.heap) - 1
	l.heap[0] = l.heap[n]
	l.heap[n] = event{} // release the closure/target
	l.heap = l.heap[:n]
	if n > 0 {
		l.down(0)
	}
	l.now = ev.at // never backwards: Schedule clamps to now
	if ev.tgt != nil {
		ev.tgt.RunEvent()
	} else {
		ev.fn()
	}
	return true
}

// NextTime reports the timestamp of the earliest pending event, and
// whether one exists. Shard coordinators use it to compute the safe
// horizon; it never pops.
func (l *EventLoop) NextTime() (Time, bool) {
	if len(l.heap) == 0 {
		return 0, false
	}
	return l.heap[0].at, true
}

// RunBefore processes events with timestamps strictly before limit,
// then stops. Events a callback schedules inside the window run within
// the same call; afterwards every pending event is at or past limit.
func (l *EventLoop) RunBefore(limit Time) {
	for len(l.heap) > 0 && l.heap[0].at < limit {
		l.Step()
	}
}

// Run processes events until none remain. Procs spawned with Go count
// as events while runnable, so Run returns only when every process has
// finished and all completions have drained.
func (l *EventLoop) Run() {
	for l.Step() {
	}
}

// less orders events by (time, sequence).
func (l *EventLoop) less(i, j int) bool {
	if l.heap[i].at != l.heap[j].at {
		return l.heap[i].at < l.heap[j].at
	}
	return l.heap[i].seq < l.heap[j].seq
}

func (l *EventLoop) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !l.less(i, parent) {
			break
		}
		l.heap[i], l.heap[parent] = l.heap[parent], l.heap[i]
		i = parent
	}
}

func (l *EventLoop) down(i int) {
	n := len(l.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		next := left
		if right := left + 1; right < n && l.less(right, left) {
			next = right
		}
		if !l.less(next, i) {
			return
		}
		l.heap[i], l.heap[next] = l.heap[next], l.heap[i]
		i = next
	}
}

// Proc is a simulated process: a coroutine that runs simulation code
// and yields control back to the event loop whenever it waits for
// virtual time to pass or for an external wake-up. Exactly one Proc
// runs at a time; the loop hands it the baton and blocks until the
// Proc parks or finishes.
type Proc struct {
	loop  *EventLoop
	now   Time
	next  func() (struct{}, bool) // loop -> proc: run until the next park; nil once finished
	yield func(struct{}) bool     // proc -> loop: park
}

// Go spawns a process that begins executing body at virtual time
// start. The body runs as a coroutine, only while it holds the baton;
// it must interact with virtual time exclusively through its Proc.
// The coroutine's goroutine exits when body returns.
func (l *EventLoop) Go(start Time, body func(p *Proc)) *Proc {
	p := &Proc{loop: l}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.now = l.Now()
		body(p)
	})
	l.ScheduleTarget(start, p)
	return p
}

// resume hands the baton to the process and blocks until it parks or
// finishes. It runs in loop context (inside an event). A panic in the
// body surfaces here, on the goroutine running the loop.
func (p *Proc) resume() {
	if p.next == nil {
		panic("sim: resume of a finished proc")
	}
	if _, ok := p.next(); !ok {
		p.next, p.yield = nil, nil
	}
}

// RunEvent implements EventTarget: a scheduled Proc resumes. This is
// the park/unpark hot path — WaitUntil and Go schedule the Proc
// itself instead of a fresh closure around resume.
func (p *Proc) RunEvent() { p.resume() }

// Now reports the process's local virtual time. It can run ahead of
// the loop clock between yields (CPU-only work is accounted locally);
// it never lags it after a wait.
func (p *Proc) Now() Time { return p.now }

// WaitUntil parks the process until virtual time t, yielding the baton
// to the loop. If t is not in the future the call returns immediately
// without yielding. It returns the process's time afterwards.
func (p *Proc) WaitUntil(t Time) Time {
	if t <= p.now {
		return p.now
	}
	p.loop.ScheduleTarget(t, p)
	return p.Park()
}

// Sleep parks the process for d of virtual time.
func (p *Proc) Sleep(d Time) Time { return p.WaitUntil(p.now + d) }

// Park yields the baton until some event calls Unpark. It returns the
// virtual time at which the process was woken. The caller must have
// arranged a wake-up first, or the process sleeps forever.
func (p *Proc) Park() Time {
	p.yield(struct{}{})
	p.now = p.loop.Now()
	return p.now
}

// Unpark resumes a parked process at the loop's current time. It must
// be called from loop context (inside an event callback) and hands the
// baton to the process until it parks again. Unparking a finished
// process panics.
func (p *Proc) Unpark() { p.resume() }
