package warehouse

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceExperiment is testExperiment with the workload swapped for a
// replayed capture.
func traceExperiment(mode trace.ReplayMode, scale float64, tenants int) *core.Experiment {
	tr := &trace.Trace{Records: []trace.Record{
		{At: 0, Kind: workload.OpCreate, Path: "/a"},
		{At: 1000, Kind: workload.OpWriteSeq, Path: "/a", Size: 4096},
		{At: 2000, Kind: workload.OpReadRand, Path: "/a", Size: 4096, Stream: 1, Owner: 1},
	}}
	srcs := make([]trace.Source, tenants)
	for i := range srcs {
		srcs[i] = trace.MemorySource(tr)
	}
	e := testExperiment(1)
	e.Workload = nil
	e.Trace = &core.TraceReplay{Tenants: srcs, Mode: mode, Scale: scale, Name: "cap.fsbt"}
	return e
}

// TestFingerprintSeesTrace: a traced experiment measures (content,
// discipline, scale, tenant count); each must move the fingerprint,
// and none may collide with the workload experiment on the same
// stack.
func TestFingerprintSeesTrace(t *testing.T) {
	base := traceExperiment(trace.Timed, 0, 1)
	baseFP := Fingerprint(base)
	if baseFP == Fingerprint(testExperiment(1)) {
		t.Error("traced and workload experiments share a fingerprint")
	}
	variants := map[string]*core.Experiment{
		"mode":    traceExperiment(trace.AFAP, 0, 1),
		"scale":   traceExperiment(trace.Scaled, 4, 1),
		"tenants": traceExperiment(trace.Timed, 0, 3),
	}
	content := traceExperiment(trace.Timed, 0, 1)
	tr2 := &trace.Trace{Records: []trace.Record{
		{At: 0, Kind: workload.OpStat, Path: "/other"},
	}}
	content.Trace.Tenants = []trace.Source{trace.MemorySource(tr2)}
	variants["content"] = content
	for name, e := range variants {
		if Fingerprint(e) == baseFP {
			t.Errorf("%s change did not move the fingerprint", name)
		}
	}
	// The trace Name is a label, not measured content.
	renamed := traceExperiment(trace.Timed, 0, 1)
	renamed.Trace.Name = "same-bytes-other-file.fsbt"
	if Fingerprint(renamed) != baseFP {
		t.Error("trace file name moved the fingerprint; only content should")
	}
}

// TestFingerprintDigestIsContentOnly: the same records in a different
// submission order (as two captures of the same operations might
// hold them) must pool under one fingerprint — the digest is an
// order-insensitive content hash, not a byte hash of the file.
func TestFingerprintDigestIsContentOnly(t *testing.T) {
	a := traceExperiment(trace.Timed, 0, 1)
	rev := &trace.Trace{Records: []trace.Record{
		{At: 2000, Kind: workload.OpReadRand, Path: "/a", Size: 4096, Stream: 1, Owner: 1},
		{At: 1000, Kind: workload.OpWriteSeq, Path: "/a", Size: 4096},
		{At: 0, Kind: workload.OpCreate, Path: "/a"},
	}}
	b := traceExperiment(trace.Timed, 0, 1)
	b.Trace.Tenants = []trace.Source{trace.MemorySource(rev)}
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("record order moved the fingerprint; digest must be content-only")
	}
}

// TestRecordCarriesTrace: warehouse records of traced runs carry the
// digest, discipline, and scale so queries can select them.
func TestRecordCarriesTrace(t *testing.T) {
	e := traceExperiment(trace.Scaled, 3, 2)
	res := &core.Result{Experiment: e, Hist: &metrics.Histogram{}}
	rec := FromResult(res, "", time.Unix(0, 0))
	if rec.TraceDigest == "" || rec.TraceDigest != e.Trace.Digest() {
		t.Errorf("record trace digest = %q, want %q", rec.TraceDigest, e.Trace.Digest())
	}
	if rec.ReplayMode != "scaled" {
		t.Errorf("record replay mode = %q, want scaled", rec.ReplayMode)
	}
	if rec.ReplayScale != 3 {
		t.Errorf("record replay scale = %g, want 3", rec.ReplayScale)
	}
	if rec.Personality != "cap.fsbt" {
		t.Errorf("record personality = %q, want trace name", rec.Personality)
	}
	if rec.Arrival != "replay-scaled" {
		t.Errorf("record arrival = %q, want replay-scaled", rec.Arrival)
	}
	if rec.Threads != e.Trace.Workers() {
		t.Errorf("record threads = %d, want %d", rec.Threads, e.Trace.Workers())
	}
}
