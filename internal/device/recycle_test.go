package device

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// recSched records the order a wrapped scheduler hands requests to
// the device, as Seq:LBA, the last request popped, and every distinct
// IORequest object it has seen.
type recSched struct {
	Scheduler
	pops []string
	last *IORequest
	seen map[*IORequest]bool
}

func (s *recSched) Pop(now sim.Time, head int64) *IORequest {
	r := s.Scheduler.Pop(now, head)
	if r != nil {
		s.pops = append(s.pops, fmt.Sprintf("%d:%d", r.Seq, r.Req.LBA))
		s.last = r
		s.seen[r] = true
	}
	return r
}

// chain is a Completer that submits its owner's next request from
// inside Complete, until left runs out.
type chain struct {
	q     *Queue
	owner int
	left  int
	lba   int64
	log   *[]string
	fresh bool // drop the free list first, so the next submit allocates
}

func (c *chain) Complete(at sim.Time, err error) {
	if err != nil {
		panic(err)
	}
	*c.log = append(*c.log, fmt.Sprintf("%d@%d", c.owner, at))
	if c.left == 0 {
		return
	}
	c.left--
	c.lba = (c.lba + 7919*int64(c.owner)*4096) % (1 << 28)
	if c.fresh {
		c.q.free = sim.FreeList[IORequest]{}
	}
	c.q.Submit(at, Request{Op: Read, LBA: c.lba, Sectors: 8, Owner: c.owner}, c)
}

// runChains drives three owners' dependent request chains through an
// elevator queue of depth 4 and returns its dispatch order, completion
// log and stats, and how many distinct IORequest objects it used.
func runChains(fresh bool) (pops, done []string, stats string, objects int) {
	rs := &recSched{Scheduler: &elevator{}, seen: map[*IORequest]bool{}}
	loop := sim.NewEventLoop(0)
	q := NewQueue(NewHDD(DefaultHDD(), sim.NewRNG(1)), rs, 4, loop)
	for owner := 1; owner <= 3; owner++ {
		c := &chain{q: q, owner: owner, left: 12, lba: int64(owner) << 20, log: &done, fresh: fresh}
		// Two requests per owner in flight at once, both continuing
		// the same chain.
		q.Submit(0, Request{Op: Read, LBA: c.lba, Sectors: 8, Owner: owner}, c)
		q.Submit(0, Request{Op: Read, LBA: c.lba + 64, Sectors: 8, Owner: owner}, c)
	}
	loop.Run()
	return rs.pops, done, fmt.Sprintf("%+v", q.Stats()), len(rs.seen)
}

// TestResubmitFromCompleteReusesRequest: a Completer that submits from
// inside Complete gets the IORequest just freed, so 42 requests run on
// the six objects live at the start; and recycling changes nothing
// observable — dispatch order (by Seq), completion times and
// QueueStats match a run where every request is freshly allocated.
func TestResubmitFromCompleteReusesRequest(t *testing.T) {
	const total = 3 * (2 + 12)
	pops, done, stats, objects := runChains(false)
	freshPops, freshDone, freshStats, freshObjects := runChains(true)
	if objects != 6 || freshObjects != total {
		t.Fatalf("%d requests ran on %d objects recycled, %d fresh; want 6 and %d", total, objects, freshObjects, total)
	}
	if len(done) != total {
		t.Fatalf("%d completions, want %d", len(done), total)
	}
	if fmt.Sprint(pops) != fmt.Sprint(freshPops) {
		t.Errorf("dispatch order differs:\nrecycled %v\nfresh    %v", pops, freshPops)
	}
	if fmt.Sprint(done) != fmt.Sprint(freshDone) {
		t.Errorf("completions differ:\nrecycled %v\nfresh    %v", done, freshDone)
	}
	if stats != freshStats {
		t.Errorf("stats differ:\nrecycled %s\nfresh    %s", stats, freshStats)
	}
}

// nextFree returns the request q's next submission would take if it
// is one of known, else nil. It puts what it took back.
func nextFree(q *Queue, known ...*IORequest) *IORequest {
	r := q.free.Get()
	q.free.Put(r)
	for _, k := range known {
		if r == k {
			return r
		}
	}
	return nil
}

// TestDispatchErrorRecyclesAfterFinish: a request the device refuses
// at dispatch stays out of the free list until its completion event
// runs finish, so a submission in between cannot take it over; the
// request is freed before its Completer runs. A remote request refused
// at dispatch is mailed at once and freed at once, since no local
// event refers to it.
func TestDispatchErrorRecyclesAfterFinish(t *testing.T) {
	faulty := NewFaulty(NewHDD(DefaultHDD(), sim.NewRNG(1)),
		FaultPolicy{BadRanges: []SectorRange{{First: 1 << 20, Count: 1 << 20}}}, sim.NewRNG(2))
	rs := &recSched{Scheduler: &fcfs{}, seen: map[*IORequest]bool{}}
	loop := sim.NewEventLoop(0)
	q := NewQueue(faulty, rs, 8, loop)

	var bad *IORequest
	var badErr error
	var badAt sim.Time = -1
	q.Submit(0, Request{Op: Read, LBA: 1 << 20, Sectors: 8}, CompleteFunc(func(at sim.Time, err error) {
		badAt, badErr = at, err
		if nextFree(q, bad) != bad {
			t.Error("refused request not on the free list when its Completer ran")
		}
	}))
	bad = rs.last
	q.Submit(0, Request{Op: Read, LBA: 0, Sectors: 8}, nil)
	if rs.last == bad {
		t.Fatal("a submission took over a refused request before its finish")
	}
	loop.Run()
	if !errors.Is(badErr, ErrIO) || badAt != 0 {
		t.Fatalf("refused request completed at %v with %v, want ErrIO at 0", badAt, badErr)
	}

	// Remote: the refusal is mailed through the sender at dispatch.
	var mail []func()
	send := func(at sim.Time, fn func()) { mail = append(mail, fn) }
	var remoteErr error
	q.SubmitRemote(loop.Now(), Request{Op: Read, LBA: 1 << 20, Sectors: 8}, send,
		CompleteFunc(func(_ sim.Time, err error) { remoteErr = err }))
	if remote := rs.last; len(mail) != 1 || nextFree(q, remote) != remote {
		t.Fatalf("remote refusal: %d mails, request freed %v; want 1 mail and the request freed", len(mail), nextFree(q, remote) != nil)
	}
	mail[0]()
	if !errors.Is(remoteErr, ErrIO) {
		t.Fatalf("remote refusal completed with %v, want ErrIO", remoteErr)
	}
}
