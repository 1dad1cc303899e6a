package workload

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// goroutinesSettle waits for goroutines that are already on their way
// out (a shard runner between its WaitGroup.Done and its return) and
// fails if the count stays above want.
func goroutinesSettle(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%d goroutines after Run, %d before:\n%s", got, want, buf)
	}
}

// TestRunLeavesNoGoroutines checks that every proc a run spawns —
// virtual threads, open-loop arrival processes, write-back daemons,
// shard runners — has exited by the time Run returns, including runs
// the horizon cuts with writers throttled and an open-loop backlog
// still queued.
func TestRunLeavesNoGoroutines(t *testing.T) {
	type engine interface {
		Setup(start sim.Time) (sim.Time, error)
		Run(start, until sim.Time) (sim.Time, error)
	}
	cases := []struct {
		name  string
		build func(t *testing.T) (engine, error)
	}{
		{"closed", func(t *testing.T) (engine, error) {
			return NewEngine(testMount(t, 4096), FileServer(50, 64<<10, 2), 7)
		}},
		{"throttled", func(t *testing.T) (engine, error) {
			return NewEngine(flusherMount(t, 512), RandomWrite(8<<20, 16<<10, 4), 9)
		}},
		{"openloop-overload", func(t *testing.T) (engine, error) {
			return NewEngine(testMount(t, 16384), OpenLoopRead(4<<20, 2048, 2, 1e6), 1)
		}},
		{"replica-sharded", func(t *testing.T) (engine, error) {
			return NewShardedEngine(testMounts(t, 2, 2048), FileServer(60, 16<<10, 6), 7)
		}},
		{"shared-device", func(t *testing.T) (engine, error) {
			return NewSharedDeviceEngine(sharedDeviceMounts(t, 2, 2048), FileServer(60, 16<<10, 6), 7)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e, err := tc.build(t)
			if err != nil {
				t.Fatal(err)
			}
			start, err := e.Setup(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(start, start+sim.Second); err != nil {
				t.Fatal(err)
			}
			goroutinesSettle(t, before)
		})
	}
}
