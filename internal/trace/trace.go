// Package trace records and replays operation traces.
//
// The paper's survey found trace-based evaluation popular but almost
// no traces publicly available ("of the 14 'standard' traces, only 2
// ... are widely available. When researchers go to the effort to make
// traces, it would benefit the community to make them widely
// available"). This package makes traces a first-class artifact: a
// compact streaming binary format (FSBT v2) that carries requester
// identity and scales to millions of records without materializing
// them, and an event-kernel replay engine with selectable timing
// disciplines (timed / afap / scaled) and multi-tenant merge.
package trace

import (
	"io"
	"sort"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Record is one traced operation.
type Record struct {
	At     sim.Time // submission time, relative to trace start
	Kind   workload.OpKind
	Path   string
	Offset int64
	Size   int64
	// Owner is the requester identity the operation was captured
	// under (the recording engine's thread OwnerID). Replay under
	// multi-tenant merge re-bases it per tenant.
	Owner int
	// Stream is the logical submission stream the record belongs to
	// (the recorded thread): replay serializes records of one stream
	// and lets distinct streams contend, which is what preserves the
	// captured concurrency structure.
	Stream int
}

// Trace is an in-memory trace. The replay engine does not require
// one — FileSource streams records straight off disk — but small
// traces and tests are simpler to build this way.
type Trace struct {
	Records []Record
}

// Recorder collects records from a workload probe. Attach via Hook.
type Recorder struct {
	t     Trace
	start sim.Time
	first bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{first: true} }

// Hook returns the function to install as workload.Probe.Trace. The
// probe fires at op completion, so records arrive ordered by `done`
// while At is the submission instant; Trace() re-sorts by At.
func (r *Recorder) Hook() func(owner int, kind workload.OpKind, path string, offset, size int64, start, done sim.Time) {
	return func(owner int, kind workload.OpKind, path string, offset, size int64, start, done sim.Time) {
		if r.first {
			r.start = start
			r.first = false
		}
		r.t.Records = append(r.t.Records, Record{
			At:     start - r.start,
			Kind:   kind,
			Path:   path,
			Offset: offset,
			Size:   size,
			Owner:  owner,
			Stream: owner,
		})
	}
}

// Trace returns the collected trace, stably sorted by submission
// time — the order the binary format requires and replay dispatches
// in. (Completion-order capture interleaves submission times across
// threads; the stable sort keeps same-instant records in capture
// order, so the result is deterministic.)
func (r *Recorder) Trace() *Trace {
	sortRecords(r.t.Records)
	// The hook anchors At to the first *completed* op's submission
	// time, but an earlier-submitted op can complete later and land at
	// a negative At; rebase so the earliest submission is exactly 0.
	if recs := r.t.Records; len(recs) > 0 && recs[0].At != 0 {
		base := recs[0].At
		for i := range recs {
			recs[i].At -= base
		}
	}
	return &r.t
}

// sortRecords stably orders records by At.
func sortRecords(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
}

// --- binary codec ------------------------------------------------------

// WriteBinary encodes the trace in FSBT v2 (see stream.go). Records
// are written in submission-time order: the trace is stably sorted by
// At first, which is a no-op for Recorder output.
func (t *Trace) WriteBinary(w io.Writer) error {
	recs := t.Records
	if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].At < recs[j].At }) {
		recs = append([]Record(nil), recs...)
		sortRecords(recs)
	}
	tw := NewWriter(w)
	for _, rec := range recs {
		if err := tw.Write(rec); err != nil {
			return err
		}
	}
	return tw.Close()
}
