package device

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func mkNVMe(channels int, seed uint64) *NVMe {
	cfg := DefaultNVMe()
	cfg.Channels = channels
	cfg.CapacityBytes = 1 << 30
	return NewNVMe(cfg, sim.NewRNG(seed))
}

func TestNVMeServiceWidth(t *testing.T) {
	if got := mkNVMe(4, 1).ServiceWidth(); got != 4 {
		t.Errorf("ServiceWidth = %d, want 4", got)
	}
	cfg := DefaultNVMe()
	cfg.Channels = 0
	if got := NewNVMe(cfg, sim.NewRNG(1)).ServiceWidth(); got != 1 {
		t.Errorf("ServiceWidth with 0 channels = %d, want clamp to 1", got)
	}
	var dev Device = mkNVMe(2, 1)
	if mq, ok := dev.(MultiQueue); !ok || mq.ServiceWidth() != 2 {
		t.Error("NVMe does not surface MultiQueue through the Device interface")
	}
}

func TestNVMeValidate(t *testing.T) {
	n := mkNVMe(2, 1)
	if _, err := n.Submit(0, Request{Op: Read, LBA: -1, Sectors: 8}); err == nil {
		t.Error("negative LBA accepted")
	}
	if _, err := n.Submit(0, Request{Op: Read, LBA: n.Sectors(), Sectors: 8}); err == nil {
		t.Error("request past capacity accepted")
	}
	if n.Stats().Errors != 2 {
		t.Errorf("errors = %d, want 2", n.Stats().Errors)
	}
}

// TestNVMeChannelsServeConcurrently is the device-level concurrency
// contract: K same-instant submissions land on K distinct channels and
// finish at K independent single-request service times, while the
// K+1st queues behind the earliest channel.
func TestNVMeChannelsServeConcurrently(t *testing.T) {
	n := mkNVMe(4, 7)
	var dones []sim.Time
	for i := 0; i < 5; i++ {
		done, err := n.Submit(0, Request{Op: Read, LBA: int64(i) * 1000, Sectors: 8})
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
	}
	// One request's service is ~CmdOverhead + ReadLatency + transfer;
	// with 4 channels the first four must all complete within ~2x a
	// single service time, not serially.
	single := DefaultNVMe().CmdOverhead + DefaultNVMe().ReadLatency + 10*sim.Microsecond
	for i := 0; i < 4; i++ {
		if dones[i] > 2*single {
			t.Errorf("request %d done at %v on an idle channel, want < %v", i, dones[i], 2*single)
		}
	}
	if dones[4] <= dones[0] && dones[4] <= dones[1] && dones[4] <= dones[2] && dones[4] <= dones[3] {
		t.Errorf("5th request (%v) did not queue behind any channel %v", dones[4], dones[:4])
	}
}

func TestNVMeDeterminism(t *testing.T) {
	run := func() string {
		n := mkNVMe(4, 42)
		rng := sim.NewRNG(43)
		trace := ""
		for i := 0; i < 200; i++ {
			done, err := n.Submit(0, Request{Op: Op(i % 2), LBA: rng.Int63n(1 << 20), Sectors: 8})
			if err != nil {
				t.Fatal(err)
			}
			trace += fmt.Sprintf("%d ", done)
		}
		return trace
	}
	if a, b := run(), run(); a != b {
		t.Error("same-seed NVMe runs differ")
	}
}

// TestSubmitBatchReturnsLatestCompletion is the multi-channel batch
// contract: on a device that completes requests out of submission
// order, SubmitBatch must report the completion of the whole batch,
// not of whichever request was submitted last.
func TestSubmitBatchReturnsLatestCompletion(t *testing.T) {
	reqs := []Request{
		{Op: Write, LBA: 0, Sectors: 4096},  // long transfer on channel 0
		{Op: Write, LBA: 50000, Sectors: 8}, // short on channel 1, finishes first
	}
	// Replay the same requests individually on an identically seeded
	// device: the batch must return the max of the per-request times.
	ref := mkNVMe(2, 5)
	var want, short sim.Time
	for i, r := range reqs {
		d, err := ref.Submit(0, r)
		if err != nil {
			t.Fatal(err)
		}
		if d > want {
			want = d
		}
		if i == 1 {
			short = d
		}
	}
	if short >= want {
		t.Fatalf("scenario broken: short request (%v) must finish before the long one (%v)", short, want)
	}
	got, err := SubmitBatch(mkNVMe(2, 5), 0, append([]Request(nil), reqs...))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("SubmitBatch done = %v, want batch-wide max %v (last-submitted finishes at %v)",
			got, want, short)
	}
}

// mkNVMeQueue builds an event-driven queue over an NVMe device.
func mkNVMeQueue(t testing.TB, channels, depth int, schedName string) (*Queue, *sim.EventLoop) {
	t.Helper()
	sched, err := NewScheduler(schedName)
	if err != nil {
		t.Fatal(err)
	}
	loop := sim.NewEventLoop(0)
	return NewQueue(mkNVMe(channels, 1), sched, depth, loop), loop
}

// TestQueueWidthFromDevice pins the service bound wiring: mechanical
// devices get width 1, NVMe gets its channel count, and the Faulty
// wrapper forwards the inner width.
func TestQueueWidthFromDevice(t *testing.T) {
	loop := sim.NewEventLoop(0)
	sched, _ := NewScheduler(SchedFCFS)
	if w := NewQueue(NewHDD(DefaultHDD(), sim.NewRNG(1)), sched, 8, loop).width; w != 1 {
		t.Errorf("HDD queue width = %d, want 1", w)
	}
	if w := NewQueue(mkNVMe(4, 1), sched, 8, loop).width; w != 4 {
		t.Errorf("NVMe queue width = %d, want 4", w)
	}
	faulty := NewFaulty(mkNVMe(4, 1), FaultPolicy{}, sim.NewRNG(2))
	if w := NewQueue(faulty, sched, 8, loop).width; w != 4 {
		t.Errorf("Faulty(NVMe) queue width = %d, want forwarded 4", w)
	}
}

// TestQueueDispatchesWhileChannelsFree is the tentpole behavior: with
// a K-channel device the queue keeps K requests in flight, so a burst
// drains close to K times faster than on one channel, and InFlight
// actually reaches K.
func TestQueueDispatchesWhileChannelsFree(t *testing.T) {
	drain := func(channels int) (last sim.Time, peak int) {
		q, loop := mkNVMeQueue(t, channels, 32, SchedFCFS)
		for i := 0; i < 64; i++ {
			q.Submit(0, Request{Op: Read, LBA: int64(i) * 4096, Sectors: 8},
				func(done sim.Time, err error) {
					if err != nil {
						t.Fatal(err)
					}
					if done > last {
						last = done
					}
				})
			if q.inflight > peak {
				peak = q.inflight
			}
		}
		loop.Run()
		if pending(q) != 0 || q.inflight != 0 {
			t.Fatalf("channels=%d: not drained: pending=%d inflight=%d",
				channels, pending(q), q.inflight)
		}
		return last, peak
	}
	serial, peak1 := drain(1)
	wide, peak4 := drain(4)
	if peak1 != 1 {
		t.Errorf("1-channel peak in-flight = %d, want 1", peak1)
	}
	if peak4 != 4 {
		t.Errorf("4-channel peak in-flight = %d, want 4", peak4)
	}
	speedup := float64(serial) / float64(wide)
	if speedup < 2.5 {
		t.Errorf("4 channels drained only %.2fx faster than 1 (%v vs %v)", speedup, wide, serial)
	}
}

// TestQueueSchedulersDrainMultiQueue runs every scheduler against a
// multi-channel device: the Pop contract is unchanged, every request
// completes exactly once, and the counters balance.
func TestQueueSchedulersDrainMultiQueue(t *testing.T) {
	for _, name := range []string{SchedFCFS, SchedElevator, SchedNCQ, SchedCFQ} {
		q, loop := mkNVMeQueue(t, 4, 8, name)
		n := 0
		for i := 0; i < 50; i++ {
			q.Submit(0, Request{Op: Read, LBA: int64(i) * 999, Sectors: 8, Owner: 1 + i%3},
				func(done sim.Time, err error) {
					if err != nil {
						t.Fatal(err)
					}
					n++
				})
		}
		loop.Run()
		if n != 50 {
			t.Errorf("%s: completed %d of 50", name, n)
		}
		if s := q.Stats(); s.Completed != 50 || s.Submitted != 50 || s.Errors != 0 {
			t.Errorf("%s: stats = %+v", name, s)
		}
	}
}

// TestQueueMultiQueueDeterminism: same seed, same trace, with 4
// channels in flight and completions interleaving.
func TestQueueMultiQueueDeterminism(t *testing.T) {
	run := func() string {
		sched, _ := NewScheduler(SchedNCQ)
		loop := sim.NewEventLoop(0)
		q := NewQueue(mkNVMe(4, 42), sched, 16, loop)
		rng := sim.NewRNG(43)
		var trace string
		for i := 0; i < 200; i++ {
			lba := rng.Int63n(1 << 20)
			q.Submit(loop.Now(), Request{Op: Read, LBA: lba, Sectors: 8},
				func(done sim.Time, err error) {
					trace += fmt.Sprintf("%d@%d ", lba, done)
				})
		}
		loop.Run()
		return trace
	}
	if a, b := run(), run(); a != b {
		t.Error("same-seed multi-queue runs differ")
	}
}

// gatedScheduler wraps FCFS but refuses to serve until opened — the
// shape of an anticipatory-idling policy, used to exercise Kick.
type gatedScheduler struct {
	fcfs
	open bool
}

func (g *gatedScheduler) Pop(now sim.Time, head int64) *IORequest {
	if !g.open {
		return nil
	}
	return g.fcfs.Pop(now, head)
}

// TestQueueKickRedispatches is the timer-driven re-dispatch hook: a
// scheduler holding requests back (Pop returning nil with a non-empty
// window) gets re-asked at the kicked instant, and service proceeds
// from there.
func TestQueueKickRedispatches(t *testing.T) {
	g := &gatedScheduler{}
	loop := sim.NewEventLoop(0)
	q := NewQueue(mkNVMe(1, 1), g, 8, loop)
	var done sim.Time
	q.Submit(0, Request{Op: Read, LBA: 0, Sectors: 8}, func(d sim.Time, err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = d
	})
	const idle = 5 * sim.Millisecond
	loop.Schedule(idle, func() { g.open = true })
	q.Kick(idle)
	loop.Run()
	if done == 0 {
		t.Fatal("request never serviced after kick")
	}
	if done < idle {
		t.Errorf("request done at %v, before the %v kick", done, idle)
	}
	if pending(q) != 0 {
		t.Errorf("queue not drained: %d pending", pending(q))
	}
}
