package metrics

// LoadGauge tracks an open-loop load generator's offered versus
// completed operations. A closed loop cannot diverge here — it only
// issues what it finishes — but an open loop offered more work than
// the system absorbed shows the gap directly: Offered - Completed is
// the abandoned backlog, and BacklogPeak is the high-water mark of the
// in-system population (arrived, not yet completed). The paper's point
// is that a harness which hides this gap reports saturation as if it
// were capacity; the gauge is how this harness refuses to.
type LoadGauge struct {
	// Offered counts op instances the arrival process generated.
	Offered int64
	// Completed counts op instances the worker pool finished
	// (including ones that ended in a counted, benign error).
	Completed int64
	// BacklogPeak is the high-water mark of Offered - Completed.
	BacklogPeak int64
}

// Arrive records one generated op instance.
func (g *LoadGauge) Arrive() {
	g.Offered++
	if b := g.Offered - g.Completed; b > g.BacklogPeak {
		g.BacklogPeak = b
	}
}

// Complete records one finished op instance.
func (g *LoadGauge) Complete() { g.Completed++ }

// CompletionRatio reports Completed/Offered — the fraction of offered
// load the system absorbed. A gauge that never saw an arrival (closed
// loops) reports 1: everything issued was completed by construction.
func (g *LoadGauge) CompletionRatio() float64 {
	if g.Offered == 0 {
		return 1
	}
	return float64(g.Completed) / float64(g.Offered)
}

// Merge folds another gauge into g (per-run gauges into an aggregate):
// counts add, the peak takes the maximum.
func (g *LoadGauge) Merge(other LoadGauge) {
	g.Offered += other.Offered
	g.Completed += other.Completed
	if other.BacklogPeak > g.BacklogPeak {
		g.BacklogPeak = other.BacklogPeak
	}
}
