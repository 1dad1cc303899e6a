package fs

import (
	"testing"

	"repro/internal/sim"
)

// fragmented returns an allocator over total blocks in which a seeded
// mix of short runs is allocated and every other one freed again,
// leaving free space in holes of 1-32 blocks.
func fragmented(total, groupSize int64, seed uint64) *BitmapAlloc {
	a := NewBitmapAlloc(total, groupSize)
	rng := sim.NewRNG(seed)
	var held []Run
	for a.Free() > total/4 {
		runs, err := a.Alloc(1+rng.Int63n(32), a.Total()-a.Free())
		if err != nil {
			break
		}
		held = append(held, runs...)
	}
	for i := 0; i < len(held); i += 2 {
		a.FreeRun(held[i].Start, held[i].Count)
	}
	return a
}

// BenchmarkBitmapAllocFragmented allocates and frees 16 blocks at a
// random goal on a fragmented 4 GiB device with ext2's 32768-block
// groups.
func BenchmarkBitmapAllocFragmented(b *testing.B) {
	a := fragmented(1<<20, 32768, 1)
	rng := sim.NewRNG(2)
	goals := make([]int64, 1024)
	for i := range goals {
		goals[i] = rng.Int63n(a.Total())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := a.Alloc(16, goals[i%len(goals)])
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range runs {
			a.FreeRun(r.Start, r.Count)
		}
	}
}
