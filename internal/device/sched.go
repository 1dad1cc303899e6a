package device

import (
	"fmt"

	"repro/internal/sim"
)

// A Completer receives a request's completion: Complete runs once, in
// the submitting loop's context, at the request's completion time, with
// the device's error (nil on success). It is the block layer's only
// completion path. Hot-path callers pass a long-lived or pooled object
// — the request's own state, a parked process's waiter — so that
// completing a request allocates nothing; CompleteFunc adapts a plain
// function for tests and cold paths.
type Completer interface {
	Complete(at sim.Time, err error)
}

// CompleteFunc adapts an ordinary function to Completer, in the manner
// of http.HandlerFunc. Each conversion of a closure boxes it, so keep
// it off paths that run per request.
type CompleteFunc func(at sim.Time, err error)

// Complete implements Completer by calling f.
func (f CompleteFunc) Complete(at sim.Time, err error) { f(at, err) }

// An IORequest is a request resident in a device queue: the transfer
// plus its arrival time, completer, and admission sequence number.
// Schedulers order IORequests; the Queue owns their lifecycle. It
// takes each from a free list at submission and returns it there in
// finish, after reading out the completer and before calling it, so a
// Completer that submits again reuses the request just freed. Nothing
// may keep a pointer to an IORequest once its Complete has begun: a
// scheduler drops it at Pop, and the Queue recycles it at finish.
type IORequest struct {
	Req Request
	// At is the virtual time the request entered the queue.
	At sim.Time
	// Seq is the queue-assigned admission number; schedulers use it as
	// the deterministic tie-breaker and FCFS uses it outright.
	Seq uint64
	// Done, when non-nil, receives the completion.
	Done Completer

	// queue is the owning Queue, set at submission. It lets the
	// request itself be the scheduled completion event (sim.EventTarget)
	// so the dispatch hot path allocates no closure per request.
	queue *Queue
	// remote, when non-nil, marks a SubmitRemote request: Done must
	// run on the submitting shard, so the queue mails the completion
	// through this sender instead of invoking Done locally.
	remote RemoteSender
}

// RunEvent implements sim.EventTarget: the request's service has
// ended, complete it successfully. Rejection completions (device
// errors at dispatch) carry an error value and still go through a
// closure — they are off the hot path.
func (r *IORequest) RunEvent() { r.queue.complete(r, nil) }

// Scheduler picks the service order of queued requests. The Queue
// pushes every admitted request and pops one whenever the device goes
// idle; Pop receives the current head position (the LBA just past the
// last transfer) so seek-aware policies can order by distance.
//
// Implementations must be deterministic: the same push/pop sequence
// must produce the same order, with ties broken by Seq.
type Scheduler interface {
	// Name identifies the policy ("fcfs", "elevator", "ncq", "cfq").
	Name() string
	// Push admits a request into the scheduling window.
	Push(r *IORequest)
	// Pop removes and returns the next request to service, given the
	// current virtual time and head position. It returns nil when the
	// window is empty.
	Pop(now sim.Time, head int64) *IORequest
	// Len reports the number of requests in the window.
	Len() int
}

// Scheduler names accepted by NewScheduler.
const (
	SchedFCFS     = "fcfs"
	SchedElevator = "elevator"
	SchedNCQ      = "ncq"
	SchedCFQ      = "cfq"
	// SchedCFQIdle is CFQ with anticipatory idling. It is a separate
	// name, not a change to "cfq": recorded results for existing cfq
	// configurations must not drift.
	SchedCFQIdle = "cfq-idle"
)

// DefaultScheduler is the policy used when none is named: the
// elevator, matching the sorted write-back passes of the 2011-era
// Linux defaults the paper's testbed ran.
const DefaultScheduler = SchedElevator

// NewScheduler builds a scheduler by name; "" selects
// DefaultScheduler.
func NewScheduler(name string) (Scheduler, error) {
	switch name {
	case "", SchedElevator:
		return &elevator{}, nil
	case SchedFCFS:
		return &fcfs{}, nil
	case SchedNCQ:
		return &ncq{}, nil
	case SchedCFQ:
		return newCFQ(), nil
	case SchedCFQIdle:
		return newCFQIdle(), nil
	}
	return nil, fmt.Errorf("device: unknown scheduler %q (want fcfs, elevator, ncq, cfq, cfq-idle)", name)
}

// fcfs services requests strictly in arrival order. Queue depth has no
// effect on its order — it is the baseline the reordering policies are
// measured against (DESIGN.md ablation 5).
type fcfs struct {
	q []*IORequest
}

func (s *fcfs) Name() string      { return SchedFCFS }
func (s *fcfs) Push(r *IORequest) { s.q = append(s.q, r) }
func (s *fcfs) Len() int          { return len(s.q) }
func (s *fcfs) Pop(now sim.Time, head int64) *IORequest {
	if len(s.q) == 0 {
		return nil
	}
	r := s.q[0]
	copy(s.q, s.q[1:])
	s.q[len(s.q)-1] = nil
	s.q = s.q[:len(s.q)-1]
	return r
}

// elevator is a C-LOOK pass: it services the lowest LBA at or above
// the head, wrapping to the lowest LBA overall when nothing lies
// ahead. One-directional sweeps keep seek work near the minimum while
// bounding the detour any single request suffers.
type elevator struct {
	q []*IORequest
}

func (s *elevator) Name() string      { return SchedElevator }
func (s *elevator) Push(r *IORequest) { s.q = append(s.q, r) }
func (s *elevator) Len() int          { return len(s.q) }

func (s *elevator) Pop(now sim.Time, head int64) *IORequest {
	if len(s.q) == 0 {
		return nil
	}
	ahead, lowest := -1, -1
	for i, r := range s.q {
		if lowest < 0 || less(r, s.q[lowest]) {
			lowest = i
		}
		if r.Req.LBA >= head && (ahead < 0 || less(r, s.q[ahead])) {
			ahead = i
		}
	}
	pick := ahead
	if pick < 0 {
		pick = lowest // wrap: C-LOOK jumps back to the lowest LBA
	}
	return s.remove(pick)
}

// less orders by (LBA, Seq) — the elevator's sweep order.
func less(a, b *IORequest) bool {
	if a.Req.LBA != b.Req.LBA {
		return a.Req.LBA < b.Req.LBA
	}
	return a.Seq < b.Seq
}

func (s *elevator) remove(i int) *IORequest {
	r := s.q[i]
	s.q[i] = s.q[len(s.q)-1]
	s.q[len(s.q)-1] = nil
	s.q = s.q[:len(s.q)-1]
	return r
}

// ncqStarveLimit bounds how long NCQ reordering may bypass a request
// before it is serviced unconditionally, so shortest-seek-first cannot
// starve an unlucky LBA forever. It sits well above the steady-state
// queueing delay of a full window (32 requests × ~10 ms of disk
// service), because a limit inside that range would put the scheduler
// permanently in age-order mode and silently degrade it to FCFS.
const ncqStarveLimit = 2 * sim.Second

// ncq models native command queueing's free reordering: it services
// the request with the shortest seek distance from the current head
// (ties by admission order), switching to strict age order for any
// request that has waited past ncqStarveLimit. Against the elevator it
// trades per-request fairness for throughput — exactly the p99
// inflation the contention figure shows.
type ncq struct {
	q []*IORequest
}

func (s *ncq) Name() string      { return SchedNCQ }
func (s *ncq) Push(r *IORequest) { s.q = append(s.q, r) }
func (s *ncq) Len() int          { return len(s.q) }

func (s *ncq) Pop(now sim.Time, head int64) *IORequest {
	if len(s.q) == 0 {
		return nil
	}
	oldest := 0
	for i, r := range s.q {
		if r.Seq < s.q[oldest].Seq {
			oldest = i
		}
	}
	if now-s.q[oldest].At > ncqStarveLimit {
		return s.remove(oldest)
	}
	best := 0
	bestDist := dist(s.q[0].Req.LBA, head)
	for i := 1; i < len(s.q); i++ {
		d := dist(s.q[i].Req.LBA, head)
		if d < bestDist || (d == bestDist && s.q[i].Seq < s.q[best].Seq) {
			best, bestDist = i, d
		}
	}
	return s.remove(best)
}

func (s *ncq) remove(i int) *IORequest {
	r := s.q[i]
	s.q[i] = s.q[len(s.q)-1]
	s.q[len(s.q)-1] = nil
	s.q = s.q[:len(s.q)-1]
	return r
}

func dist(a, b int64) int64 {
	if a < b {
		return b - a
	}
	return a - b
}
