package core_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// TestSetupModesAgreeOnRAMDisk runs Engine.Setup both ways on stacks
// that draw nothing from an RNG (a ramdisk, no OS-reserve jitter):
// once in immediate mode, once as one proc on an event loop with the
// device queue and write-back daemon live. After DropCaches and
// ResetStats the two stacks must measure the same Run exactly: op and
// error counts, the latency histogram, cache, vfs and device counters.
// With no RNG in the stack, any difference is a real divergence
// between the two write-back protocols, not draw order.
func TestSetupModesAgreeOnRAMDisk(t *testing.T) {
	const seed = 7
	workloads := []func() *workload.Workload{
		func() *workload.Workload { return workload.FileServer(400, 64<<10, 8) },
		func() *workload.Workload { return workload.MixedRegions(2, 50, 0, 32<<20, 2<<10) },
	}
	for _, fsName := range []string{"ext2", "ext3", "xfs"} {
		for _, mk := range workloads {
			w := mk()
			t.Run(fsName+"/"+w.Name, func(t *testing.T) {
				stack := core.StackConfig{
					FS:             fsName,
					Device:         "ramdisk",
					DiskBytes:      1 << 30,
					RAMBytes:       256 << 20,
					OSReserveBytes: 64 << 20,
					CachePolicy:    "lru",
				}
				build := func() (*vfs.Mount, *workload.Engine) {
					m, err := stack.Build(sim.NewRNG(seed))
					if err != nil {
						t.Fatal(err)
					}
					e, err := workload.NewEngine(m, mk(), seed)
					if err != nil {
						t.Fatal(err)
					}
					return m, e
				}

				ref, refEng := build()
				refEnd, err := refEng.Setup(0)
				if err != nil {
					t.Fatalf("immediate setup: %v", err)
				}

				ev, evEng := build()
				loop := sim.NewEventLoop(0)
				if err := ev.BeginEvents(loop); err != nil {
					t.Fatal(err)
				}
				var evEnd sim.Time
				var setupErr error
				ev.Go(func(p *sim.Proc) {
					ev.SetProc(p, device.OwnerNone)
					evEnd, setupErr = evEng.Setup(0)
				})
				loop.Run()
				ev.EndEvents()
				if setupErr != nil {
					t.Fatalf("event-mode setup: %v", setupErr)
				}

				// Setup itself may end later in event mode, where its
				// write-back occupies the device queue; both measured
				// phases start from the same instant.
				start := max(refEnd, evEnd)
				refGot := measure(t, ref, refEng, start)
				evGot := measure(t, ev, evEng, start)
				if refGot != evGot {
					t.Errorf("measured phase differs after setup (immediate ended %v, event %v)\nimmediate: %s\nevent:     %s",
						refEnd, evEnd, refGot, evGot)
				}
			})
		}
	}
}

// measure drops the caches, zeroes the counters and runs the measured
// phase (200 ms of virtual time, thousands of ops on a ramdisk) from
// start, returning everything it observed as one string.
func measure(t *testing.T, m *vfs.Mount, e *workload.Engine, start sim.Time) string {
	t.Helper()
	m.DropCaches()
	m.ResetStats()
	hist := &metrics.Histogram{}
	e.SetProbe(&workload.Probe{Hist: hist})
	if _, err := e.Run(start, start+200*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	h, err := json.Marshal(hist)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("counter=%+v hist=%s cache=%+v vfs=%+v dev=%+v",
		e.Counter(), h, m.PC.L1.Stats(), m.Stats(), m.Dev.Stats())
}
