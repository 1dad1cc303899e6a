package metrics

import "testing"

func TestLoadGauge(t *testing.T) {
	var g LoadGauge
	if g.CompletionRatio() != 1 {
		t.Errorf("empty gauge ratio %v, want 1 (closed loops complete what they issue)", g.CompletionRatio())
	}
	g.Arrive()
	g.Arrive()
	g.Arrive()
	if g.Offered-g.Completed != 3 || g.BacklogPeak != 3 {
		t.Fatalf("backlog=%d peak=%d after 3 arrivals", g.Offered-g.Completed, g.BacklogPeak)
	}
	g.Complete()
	g.Complete()
	if g.Offered-g.Completed != 1 {
		t.Fatalf("backlog=%d after 2 completions", g.Offered-g.Completed)
	}
	g.Arrive() // backlog back to 2: peak must stay 3
	if g.BacklogPeak != 3 {
		t.Errorf("peak=%d, want the high-water mark 3", g.BacklogPeak)
	}
	if got := g.CompletionRatio(); got != 0.5 {
		t.Errorf("ratio=%v, want 0.5", got)
	}
}

func TestLoadGaugeMerge(t *testing.T) {
	a := LoadGauge{Offered: 10, Completed: 8, BacklogPeak: 4}
	b := LoadGauge{Offered: 5, Completed: 5, BacklogPeak: 2}
	a.Merge(b)
	if a.Offered != 15 || a.Completed != 13 {
		t.Errorf("merged counts = %d/%d", a.Offered, a.Completed)
	}
	if a.BacklogPeak != 4 {
		t.Errorf("merged peak = %d, want max(4,2)", a.BacklogPeak)
	}
	a.Merge(LoadGauge{BacklogPeak: 9})
	if a.BacklogPeak != 9 {
		t.Errorf("merged peak = %d, want 9", a.BacklogPeak)
	}
}
