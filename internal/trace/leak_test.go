package trace

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestReplayLeavesNoGoroutines checks that every replay proc — stream
// workers and tenant dispatchers in timed mode, stream runners in AFAP
// mode — has exited by the time Run returns, including a timed replay
// whose horizon abandons a backlog.
func TestReplayLeavesNoGoroutines(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 200; i++ {
		tr.Records = append(tr.Records, Record{
			At: sim.Time(i) * 100 * sim.Microsecond, Kind: workload.OpReadRand,
			Path: "/big", Offset: int64(i) * 97 * 4096, Size: 4096,
			Stream: i % 3,
		})
	}
	for _, tc := range []struct {
		name  string
		mode  ReplayMode
		until sim.Time
	}{
		{"timed", Timed, sim.Second},
		{"timed-horizon", Timed, 5 * sim.Millisecond},
		{"afap", AFAP, sim.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			src := MemorySource(tr)
			runEngine(t, EngineConfig{Mode: tc.mode, Tenants: []Source{src, src}}, tc.until)
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > before {
				buf := make([]byte, 1<<16)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("%d goroutines after Run, %d before:\n%s", got, before, buf)
			}
		})
	}
}
