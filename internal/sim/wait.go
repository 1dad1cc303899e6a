package sim

// This file holds the process scaffolding every event-driven run
// shares: the FIFO wait list parked procs queue on, and the open-loop
// arrival backlog built from it. Wake order decides event order, so
// both keep park order exactly (DESIGN.md §6.3, §7.1).

// fifo is a slice-backed FIFO queue. It reuses its array once drained
// and compacts the consumed prefix before growing, so its memory stays
// bounded by the longest live backlog, not by the total pushed.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// pop removes and returns the oldest item; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release what the item references
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// WaitList is a FIFO of parked processes. Wakes run in park order, and
// each woken process holds the baton until it parks again, so a wait
// list adds no nondeterminism. The zero value is empty and ready.
type WaitList struct {
	q fifo[*Proc]
	// spare is the array the last WakeAll drained, cleared, ready to
	// become the list's next array instead of growing a new one.
	spare []*Proc
}

// Park appends p to the list and parks it until a wake reaches it. It
// returns the virtual time at which p was woken.
func (w *WaitList) Park(p *Proc) Time {
	w.q.push(p)
	return p.Park()
}

// WakeOne unparks the longest-waiting process, if any. It must be
// called from loop context or by the process holding the baton.
func (w *WaitList) WakeOne() {
	if w.q.len() > 0 {
		w.q.pop().Unpark()
	}
}

// WakeAll unparks, in park order, every process parked now. A woken
// process that parks on the list again joins a fresh list and waits
// for the next wake. The fresh list starts on the spare array; a
// nested WakeAll on the same list, called by a woken process, finds
// no spare and starts from none, so it never touches the array this
// call is still walking.
func (w *WaitList) WakeAll() {
	items, head := w.q.items, w.q.head
	w.q = fifo[*Proc]{items: w.spare}
	w.spare = nil
	for _, p := range items[head:] {
		p.Unpark()
	}
	clear(items)
	w.spare = items[:0]
}

// Backlog is an open-loop arrival queue: one producer process pushes
// items at their arrival times without waiting for service, and
// worker processes take them in FIFO order, parking on the backlog's
// wait list while it is empty. Close ends production; workers drain
// what is queued and then see Wait report false.
type Backlog[T any] struct {
	q      fifo[T]
	idle   WaitList
	closed bool
}

// Push queues v and hands the baton to the longest-idle worker, if
// one is parked: it runs until it parks again, then control returns
// to the producer.
func (b *Backlog[T]) Push(v T) {
	b.q.push(v)
	b.idle.WakeOne()
}

// Pop removes and returns the oldest queued item. The backlog must not
// be empty: call Pop after Wait reports true.
func (b *Backlog[T]) Pop() T { return b.q.pop() }

// Close marks the backlog finished and wakes every idle worker so it
// can observe the close.
func (b *Backlog[T]) Close() {
	b.closed = true
	b.idle.WakeAll()
}

// Wait blocks p until the backlog holds an item, reporting true, or
// is closed and drained, reporting false. now is the worker's local
// clock, which can run ahead of the loop's; Wait returns it advanced
// to the wake-up time. Before parking, the worker first realigns with
// the loop clock and re-checks, since an arrival may land during that
// yield: parking on a stale check would miss it, and a wake-up with an
// unaligned clock could rewind the worker's time.
func (b *Backlog[T]) Wait(p *Proc, now Time) (Time, bool) {
	for b.q.len() == 0 {
		if b.closed {
			return now, false
		}
		p.WaitUntil(now)
		if b.q.len() == 0 && !b.closed {
			if t := b.idle.Park(p); t > now {
				now = t
			}
		}
	}
	return now, true
}
