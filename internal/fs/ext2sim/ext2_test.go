package ext2sim

import (
	"testing"

	"repro/internal/fs"
	"repro/internal/sim"
)

// metaKeys is the heart of the indirect-block cost model; pin its
// behavior at the classic ext2 boundaries.
func TestMetaKeysBoundaries(t *testing.T) {
	cases := []struct {
		block int64
		want  int // number of indirect levels charged
	}{
		{0, 0}, {11, 0}, // direct
		{12, 1}, {12 + 1023, 1}, // single indirect
		{12 + 1024, 2}, {12 + 1024 + 1024*1024 - 1, 2}, // double
		{12 + 1024 + 1024*1024, 3}, // triple
	}
	for _, c := range cases {
		if got := len(metaKeys(c.block)); got != c.want {
			t.Errorf("metaKeys(%d) has %d levels, want %d", c.block, got, c.want)
		}
	}
}

func TestMetaKeysDistinctAcrossChunks(t *testing.T) {
	// Different 4 MB chunks in the double-indirect range must charge
	// different second-level blocks.
	a := metaKeys(12 + 1024)        // first double-indirect chunk
	b := metaKeys(12 + 1024 + 1024) // second chunk
	if a[0] != b[0] {
		t.Error("double-indirect root differs between chunks")
	}
	if a[1] == b[1] {
		t.Error("second-level key identical across chunks")
	}
	// Triple-indirect keys must not collide with double-indirect ones.
	tr := metaKeys(12 + 1024 + 1024*1024)
	seen := map[int64]bool{}
	for _, k := range append(append([]int64{}, a...), tr...) {
		if seen[k] {
			t.Errorf("key collision at %d", k)
		}
		seen[k] = true
	}
}

func TestInodePlacementInGroups(t *testing.T) {
	f, err := New(262144) // 8 groups
	if err != nil {
		t.Fatal(err)
	}
	// Inode 1 (root) lives in group 0's inode table.
	b1 := f.itab.Block(1)
	if b1 < 4 || b1 >= 4+InodesPerGroup/32 {
		t.Errorf("root inode block %d outside group 0 table", b1)
	}
	// Inode InodesPerGroup+1 lives in group 1.
	b2 := f.itab.Block(fs.Ino(InodesPerGroup + 1))
	if b2 < GroupBlocks {
		t.Errorf("group-1 inode block %d inside group 0", b2)
	}
}

func TestDataLandsInOwnGroup(t *testing.T) {
	f, err := New(262144)
	if err != nil {
		t.Fatal(err)
	}
	ino, _, err := f.Create(f.Root(), "x", fs.Regular, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Resize(ino, 4<<20, 0); err != nil {
		t.Fatal(err)
	}
	exts, _, err := f.Map(ino, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// First extent must start in the inode's block group data area
	// (group 0 for early inodes).
	if exts[0].DiskBlock < 4+InodesPerGroup/32 || exts[0].DiskBlock >= GroupBlocks {
		t.Errorf("data block %d outside group 0 data area", exts[0].DiskBlock)
	}
}

func TestContiguousGrowthOnFreshDisk(t *testing.T) {
	f, _ := New(262144)
	ino, _, _ := f.Create(f.Root(), "seq", fs.Regular, 0)
	for i := int64(1); i <= 16; i++ {
		if _, err := f.Resize(ino, i<<20, 0); err != nil {
			t.Fatal(err)
		}
	}
	exts, _, _ := f.Map(ino, 0, 16<<20/fs.BlockSize)
	// Fresh-disk appends coalesce, but ext2's indirect blocks
	// interleave with data every 1024 blocks (4 MB), so a 16 MB file
	// legitimately has ~5 extents — part of why ext2 files read
	// slower than XFS's truly contiguous extents.
	if len(exts) > 6 {
		t.Errorf("fresh-disk incremental growth produced %d extents, want <= 6", len(exts))
	}
}

func TestReserveRangePanicsOnOverlap(t *testing.T) {
	f, _ := New(262144)
	f.ReserveRange(GroupBlocks+300, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("double reserve did not panic")
		}
	}()
	f.ReserveRange(GroupBlocks+300, 1)
}

func TestDeterministicLayout(t *testing.T) {
	layout := func() []fs.Extent {
		f, _ := New(262144)
		var exts []fs.Extent
		for i := 0; i < 20; i++ {
			name := string(rune('a' + i))
			ino, _, err := f.Create(f.Root(), name, fs.Regular, sim.Time(i))
			if err != nil {
				t.Fatal(err)
			}
			f.Resize(ino, 1<<20, 0)
			e, _, _ := f.Map(ino, 0, 256)
			exts = append(exts, e...)
		}
		return exts
	}
	a, b := layout(), layout()
	if len(a) != len(b) {
		t.Fatalf("layouts differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("layout differs at extent %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestShrinkDeterministic pins the order in which shrink frees stale
// indirect blocks. The stale set lives in a map; before the keys were
// sorted, iteration order leaked into the emitted WriteStep sequence
// whenever the stale blocks spanned more than one block group (their
// bitmap writes then target different blocks). A 160 MB file
// overflows its 128 MB group, scattering indirect blocks across two
// groups.
func TestShrinkDeterministic(t *testing.T) {
	run := func() ([]fs.IOStep, []fs.Extent) {
		f, err := New(262144)
		if err != nil {
			t.Fatal(err)
		}
		ino, _, err := f.Create(f.Root(), "big", fs.Regular, 0)
		if err != nil {
			t.Fatal(err)
		}
		for mb := int64(8); mb <= 160; mb += 8 {
			if _, err := f.Resize(ino, mb<<20, 0); err != nil {
				t.Fatal(err)
			}
		}
		steps, err := f.Resize(ino, fs.BlockSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Reallocate into the freed space: the free list's state
		// after shrink decides where this file lands.
		next, _, err := f.Create(f.Root(), "next", fs.Regular, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Resize(next, 8<<20, 0); err != nil {
			t.Fatal(err)
		}
		exts, _, err := f.Map(next, 0, 8<<20/fs.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		return steps, exts
	}
	firstSteps, firstExts := run()
	for trial := 1; trial < 8; trial++ {
		steps, exts := run()
		if len(steps) != len(firstSteps) {
			t.Fatalf("trial %d: %d shrink steps, first run had %d", trial, len(steps), len(firstSteps))
		}
		for i := range steps {
			if steps[i] != firstSteps[i] {
				t.Fatalf("trial %d: shrink step %d = %+v, first run had %+v", trial, i, steps[i], firstSteps[i])
			}
		}
		if len(exts) != len(firstExts) {
			t.Fatalf("trial %d: %d extents after refill, first run had %d", trial, len(exts), len(firstExts))
		}
		for i := range exts {
			if exts[i] != firstExts[i] {
				t.Fatalf("trial %d: refill extent %d = %+v, first run had %+v", trial, i, exts[i], firstExts[i])
			}
		}
	}
}
