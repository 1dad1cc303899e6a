package trace

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// reopenFails is a Source whose every Open after the first (the
// engine's pre-scan) fails.
type reopenFails struct {
	Source
	opens int
}

func (s *reopenFails) Open() (Iterator, error) {
	if s.opens++; s.opens > 1 {
		return nil, errors.New("reopen failed")
	}
	return s.Source.Open()
}

// TestReplayLeavesNoGoroutines checks that every replay proc — stream
// workers and tenant dispatchers in timed mode, stream runners in AFAP
// mode — has exited by the time Run returns, including a timed replay
// whose horizon abandons a backlog and a replay whose Run fails
// because a source cannot be reopened.
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
		name       string
		mode       ReplayMode
		until      sim.Time
		reopenFail bool
	}{
		{"timed", Timed, sim.Second, false},
		{"timed-horizon", Timed, 5 * sim.Millisecond, false},
		{"afap", AFAP, sim.Second, false},
		{"reopen-fails", Timed, sim.Second, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			src := MemorySource(tr)
			if tc.reopenFail {
				eng, err := NewEngine(testMount(t), EngineConfig{Mode: tc.mode, Tenants: []Source{&reopenFails{Source: src}}})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Run(0, tc.until); err == nil {
					t.Fatal("Run succeeded although its source could not be reopened")
				}
			} else {
				runEngine(t, EngineConfig{Mode: tc.mode, Tenants: []Source{src, src}}, tc.until)
			}
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
