package fs

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/sim"
)

func TestBitmapAllocWrapsIntoGoalGroupPrefix(t *testing.T) {
	// Only blocks 0-4 are free, all of them before the goal in the
	// goal's own group: the wrap must come back round to them.
	a := NewBitmapAlloc(128, 64)
	a.Reserve(5, 123)
	runs, err := a.Alloc(3, 10)
	if err != nil {
		t.Fatalf("Alloc(3, 10) with %d blocks free: %v", a.Free()+3, err)
	}
	if len(runs) != 1 || runs[0] != (Run{0, 3}) {
		t.Fatalf("Alloc(3, 10) = %v, want [{0 3}]", runs)
	}
}

// allocPerBit is the reference first-fit scan: the block-at-a-time
// loop the word scan replaced, with the same order of visit (goal to
// the end of its group, the other groups, then the goal group's
// prefix) and a rollback when it runs out.
func allocPerBit(a *BitmapAlloc, n, goal int64) ([]Run, error) {
	if n <= 0 {
		return nil, nil
	}
	if n > a.free {
		return nil, ErrNoSpace
	}
	if goal < 0 || goal >= a.total {
		goal = 0
	}
	var runs []Run
	remaining := n
	startGroup := goal / a.groupSize
	ngroups := int64(len(a.groupFree))
	for gi := int64(0); gi <= ngroups && remaining > 0; gi++ {
		g := (startGroup + gi) % ngroups
		if a.groupFree[g] == 0 {
			continue
		}
		b, gEnd := g*a.groupSize, min((g+1)*a.groupSize, a.total)
		if gi == 0 {
			b = goal
		}
		if gi == ngroups {
			gEnd = goal
		}
		for b < gEnd && remaining > 0 {
			if !a.isFree(b) {
				b++
				continue
			}
			runStart := b
			for b < gEnd && remaining > 0 && a.isFree(b) {
				a.set(b)
				b++
				remaining--
			}
			runs = appendRun(runs, Run{Start: runStart, Count: b - runStart})
		}
	}
	if remaining > 0 {
		for _, r := range runs {
			for b := r.Start; b < r.Start+r.Count; b++ {
				a.clear(b)
			}
		}
		return nil, ErrNoSpace
	}
	return runs, nil
}

// cloneAlloc returns an independent copy of a.
func cloneAlloc(a *BitmapAlloc) *BitmapAlloc {
	c := *a
	c.words = slices.Clone(a.words)
	c.groupFree = slices.Clone(a.groupFree)
	return &c
}

// sameAlloc reports whether two allocators hold the same state.
func sameAlloc(a, b *BitmapAlloc) bool {
	return a.free == b.free && slices.Equal(a.words, b.words) && slices.Equal(a.groupFree, b.groupFree)
}

func TestBitmapAllocMatchesPerBitScan(t *testing.T) {
	rng := sim.NewRNG(13)
	for trial := 0; trial < 300; trial++ {
		total := 1 + rng.Int63n(700)
		groupSize := 1 + rng.Int63n(200)
		a := NewBitmapAlloc(total, groupSize)
		// Fragment: each block is taken with a per-trial probability.
		density := rng.Float64()
		for b := int64(0); b < total; b++ {
			if rng.Bool(density) {
				a.Reserve(b, 1)
			}
		}
		ref := cloneAlloc(a)
		var held []Run
		for op := 0; op < 40; op++ {
			if len(held) > 0 && rng.Bool(0.3) {
				i := rng.Intn(len(held))
				a.FreeRun(held[i].Start, held[i].Count)
				ref.FreeRun(held[i].Start, held[i].Count)
				held = append(held[:i], held[i+1:]...)
				continue
			}
			n := 1 + rng.Int63n(1+total/4)
			if rng.Bool(0.1) {
				n = a.Free() + 1 // always too many
			}
			goal := rng.Int63n(total+20) - 10 // out of range now and then
			before := cloneAlloc(a)
			got, gotErr := a.Alloc(n, goal)
			want, wantErr := allocPerBit(ref, n, goal)
			if !errors.Is(gotErr, wantErr) || !slices.Equal(got, want) {
				t.Fatalf("trial %d op %d: total=%d group=%d Alloc(%d, %d) = %v, %v; per-bit scan %v, %v",
					trial, op, total, groupSize, n, goal, got, gotErr, want, wantErr)
			}
			if !sameAlloc(a, ref) {
				t.Fatalf("trial %d op %d: Alloc(%d, %d) left a different bitmap from the per-bit scan", trial, op, n, goal)
			}
			if gotErr != nil && !sameAlloc(a, before) {
				t.Fatalf("trial %d op %d: failed Alloc(%d, %d) changed the bitmap", trial, op, n, goal)
			}
			held = append(held, got...)
		}
	}
}
