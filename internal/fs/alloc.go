package fs

import (
	"math/bits"
	"sort"
)

// Run is a contiguous range of disk blocks handed out by an allocator.
type Run struct {
	Start int64
	Count int64
}

// BitmapAlloc is a block-group bitmap allocator in the ext2 style:
// the disk is divided into fixed-size groups, each with a free bitmap,
// and allocation proceeds first-fit from a goal block, spilling into
// subsequent groups. Fragmented free space therefore yields
// fragmented files — the aging behavior the on-disk-layout dimension
// needs to be able to exhibit.
type BitmapAlloc struct {
	total     int64
	groupSize int64
	words     []uint64 // 1 bit per block; set = allocated
	free      int64
	groupFree []int64
}

// NewBitmapAlloc returns an allocator over total blocks divided into
// groups of groupSize blocks.
func NewBitmapAlloc(total, groupSize int64) *BitmapAlloc {
	if total <= 0 || groupSize <= 0 {
		panic("fs: non-positive allocator geometry")
	}
	ngroups := (total + groupSize - 1) / groupSize
	a := &BitmapAlloc{
		total:     total,
		groupSize: groupSize,
		words:     make([]uint64, (total+63)/64),
		free:      total,
		groupFree: make([]int64, ngroups),
	}
	for g := int64(0); g < ngroups; g++ {
		end := (g + 1) * groupSize
		if end > total {
			end = total
		}
		a.groupFree[g] = end - g*groupSize
	}
	return a
}

// Free reports the number of free blocks.
func (a *BitmapAlloc) Free() int64 { return a.free }

// isFree reports whether block b is free.
func (a *BitmapAlloc) isFree(b int64) bool {
	return a.words[b>>6]&(1<<(uint(b)&63)) == 0
}

func (a *BitmapAlloc) set(b int64) {
	a.words[b>>6] |= 1 << (uint(b) & 63)
	a.free--
	a.groupFree[b/a.groupSize]--
}

func (a *BitmapAlloc) clear(b int64) {
	a.words[b>>6] &^= 1 << (uint(b) & 63)
	a.free++
	a.groupFree[b/a.groupSize]++
}

// Reserve marks [start, start+count) allocated; it is used at format
// time for superblocks, inode tables, and journals. It panics if any
// block is already taken — formatting twice is a programming error.
func (a *BitmapAlloc) Reserve(start, count int64) {
	for b := start; b < start+count; b++ {
		if !a.isFree(b) {
			panic("fs: Reserve of allocated block")
		}
		a.set(b)
	}
}

// Alloc allocates n blocks first-fit starting at goal, wrapping once
// around the device: from the goal to the end of its group, through
// every other group in turn, and last the goal group's blocks before
// the goal. The result is a list of runs, contiguous when free space
// allows. Returns ErrNoSpace if fewer than n blocks are free.
func (a *BitmapAlloc) Alloc(n, goal int64) ([]Run, error) {
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
		lo, hi := g*a.groupSize, min((g+1)*a.groupSize, a.total)
		switch gi {
		case 0:
			lo = goal
		case ngroups:
			hi = goal
		}
		runs, remaining = a.take(runs, lo, hi, remaining)
	}
	if remaining > 0 {
		// The scan covered every block and n <= a.free.
		panic("fs: bitmap free counts disagree with the bitmap")
	}
	return runs, nil
}

// take allocates up to want free blocks of [lo, hi), which lies in one
// group, first-fit. It returns runs extended by what it took and the
// number of blocks still wanted.
func (a *BitmapAlloc) take(runs []Run, lo, hi, want int64) ([]Run, int64) {
	for want > 0 {
		start := a.next(lo, hi, false)
		if start == hi {
			break
		}
		end := a.next(start, min(hi, start+want), true)
		for b := start; b < end; {
			// Set the run's bits a word at a time.
			shift := uint(b & 63)
			k := min(end-b, 64-int64(shift))
			a.words[b>>6] |= (^uint64(0) >> (64 - uint(k))) << shift
			b += k
		}
		a.free -= end - start
		a.groupFree[start/a.groupSize] -= end - start
		runs = appendRun(runs, Run{Start: start, Count: end - start})
		want -= end - start
		lo = end
	}
	return runs, want
}

// next returns the first block in [lo, hi) that is allocated (or free,
// when allocated is false), or hi if there is none. It scans a word at
// a time: free blocks are the set bits of an inverted word.
func (a *BitmapAlloc) next(lo, hi int64, allocated bool) int64 {
	var flip uint64
	if !allocated {
		flip = ^uint64(0)
	}
	for lo < hi {
		if w := (a.words[lo>>6] ^ flip) >> uint(lo&63); w != 0 {
			return min(lo+int64(bits.TrailingZeros64(w)), hi)
		}
		lo = (lo | 63) + 1
	}
	return hi
}

// FreeRun returns [start, start+count) to the free pool. Freeing a
// free block panics: double frees are corruption.
func (a *BitmapAlloc) FreeRun(start, count int64) {
	for b := start; b < start+count; b++ {
		if a.isFree(b) {
			panic("fs: double free")
		}
		a.clear(b)
	}
}

func appendRun(runs []Run, r Run) []Run {
	if n := len(runs); n > 0 && runs[n-1].Start+runs[n-1].Count == r.Start {
		runs[n-1].Count += r.Count
		return runs
	}
	return append(runs, r)
}

// ExtentAlloc is a free-extent allocator in the XFS style: free space
// is kept as sorted extents and allocation prefers the single
// best-fit contiguous extent near a goal, producing large contiguous
// files (delayed-allocation behavior).
type ExtentAlloc struct {
	total int64
	free  int64
	// exts holds free extents sorted by Start, non-overlapping,
	// coalesced.
	exts []Run
}

// NewExtentAlloc returns an allocator with all blocks free.
func NewExtentAlloc(total int64) *ExtentAlloc {
	if total <= 0 {
		panic("fs: non-positive allocator size")
	}
	return &ExtentAlloc{total: total, free: total, exts: []Run{{0, total}}}
}

// Free reports free blocks.
func (a *ExtentAlloc) Free() int64 { return a.free }

// Reserve removes [start, start+count) from the free pool at format
// time. Panics if the range is not entirely free.
func (a *ExtentAlloc) Reserve(start, count int64) {
	if !a.takeRange(start, count) {
		panic("fs: Reserve of allocated extent")
	}
}

// takeRange removes an exact range from the free extents if fully
// free.
func (a *ExtentAlloc) takeRange(start, count int64) bool {
	i := sort.Search(len(a.exts), func(i int) bool {
		return a.exts[i].Start+a.exts[i].Count > start
	})
	if i >= len(a.exts) {
		return false
	}
	e := a.exts[i]
	if start < e.Start || start+count > e.Start+e.Count {
		return false
	}
	a.cutFrom(i, start, count)
	return true
}

// cutFrom removes [start,start+count) from free extent index i.
func (a *ExtentAlloc) cutFrom(i int, start, count int64) {
	e := a.exts[i]
	left := Run{e.Start, start - e.Start}
	right := Run{start + count, e.Start + e.Count - (start + count)}
	switch {
	case left.Count > 0 && right.Count > 0:
		a.exts[i] = left
		a.exts = append(a.exts, Run{})
		copy(a.exts[i+2:], a.exts[i+1:])
		a.exts[i+1] = right
	case left.Count > 0:
		a.exts[i] = left
	case right.Count > 0:
		a.exts[i] = right
	default:
		a.exts = append(a.exts[:i], a.exts[i+1:]...)
	}
	a.free -= count
}

// Alloc allocates n blocks, preferring (1) a best-fit single extent at
// or after goal, (2) the largest extents available otherwise. The
// result usually has far fewer runs than a bitmap allocator would
// produce under the same fragmentation.
func (a *ExtentAlloc) Alloc(n, goal int64) ([]Run, error) {
	if n <= 0 {
		return nil, nil
	}
	if n > a.free {
		return nil, ErrNoSpace
	}
	var runs []Run
	remaining := n
	for remaining > 0 {
		i := a.pickExtent(remaining, goal)
		e := a.exts[i]
		take := remaining
		if take > e.Count {
			take = e.Count
		}
		start := e.Start
		// If the goal falls inside this extent, allocate from it.
		if goal > e.Start && goal < e.Start+e.Count && e.Count-(goal-e.Start) >= take {
			start = goal
		}
		a.cutFrom(i, start, take)
		runs = appendRun(runs, Run{start, take})
		remaining -= take
	}
	return runs, nil
}

// pickExtent chooses the free extent index to allocate from: the
// smallest extent >= want at/after goal, else the largest extent.
func (a *ExtentAlloc) pickExtent(want, goal int64) int {
	best := -1
	var bestCount int64
	largest := 0
	for i, e := range a.exts {
		if e.Count > a.exts[largest].Count {
			largest = i
		}
		if e.Count >= want && e.Start+e.Count > goal {
			if best == -1 || e.Count < bestCount {
				best, bestCount = i, e.Count
			}
		}
	}
	if best >= 0 {
		return best
	}
	return largest
}

// FreeRun returns a range to the pool, coalescing neighbors. Panics
// on overlap with existing free space (double free).
func (a *ExtentAlloc) FreeRun(start, count int64) {
	if count <= 0 {
		return
	}
	i := sort.Search(len(a.exts), func(i int) bool {
		return a.exts[i].Start >= start
	})
	// Overlap checks against neighbors.
	if i < len(a.exts) && start+count > a.exts[i].Start {
		panic("fs: double free (overlaps next extent)")
	}
	if i > 0 && a.exts[i-1].Start+a.exts[i-1].Count > start {
		panic("fs: double free (overlaps previous extent)")
	}
	// Try to merge with previous and/or next.
	mergePrev := i > 0 && a.exts[i-1].Start+a.exts[i-1].Count == start
	mergeNext := i < len(a.exts) && start+count == a.exts[i].Start
	switch {
	case mergePrev && mergeNext:
		a.exts[i-1].Count += count + a.exts[i].Count
		a.exts = append(a.exts[:i], a.exts[i+1:]...)
	case mergePrev:
		a.exts[i-1].Count += count
	case mergeNext:
		a.exts[i].Start = start
		a.exts[i].Count += count
	default:
		a.exts = append(a.exts, Run{})
		copy(a.exts[i+1:], a.exts[i:])
		a.exts[i] = Run{start, count}
	}
	a.free += count
}
