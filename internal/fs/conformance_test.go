package fs_test

// Conformance tests: every file-system model must satisfy the same
// behavioral contract. The table of constructors below is the single
// place a new model needs to be registered to inherit the full suite.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fs"
	"repro/internal/fs/ext2sim"
	"repro/internal/fs/ext3sim"
	"repro/internal/fs/xfssim"
	"repro/internal/sim"
)

// testBlocks is 1 GB worth of 4 KB blocks — two ext2 block groups.
const testBlocks = int64(262144)

var models = []struct {
	name string
	mk   func(t *testing.T) fs.FileSystem
}{
	{"ext2", func(t *testing.T) fs.FileSystem {
		f, err := ext2sim.New(testBlocks)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}},
	{"ext3", func(t *testing.T) fs.FileSystem {
		f, err := ext3sim.New(testBlocks, ext3sim.Ordered)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}},
	{"xfs", func(t *testing.T) fs.FileSystem {
		f, err := xfssim.New(testBlocks, 4)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}},
}

func forEachModel(t *testing.T, test func(t *testing.T, f fs.FileSystem)) {
	for _, m := range models {
		m := m
		t.Run(m.name, func(t *testing.T) { test(t, m.mk(t)) })
	}
}

func TestConformanceCreateLookupGetattr(t *testing.T) {
	forEachModel(t, func(t *testing.T, f fs.FileSystem) {
		root := f.Root()
		ino, steps, err := f.Create(root, "hello", fs.Regular, sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ino == 0 || ino == root {
			t.Fatalf("Create returned ino %d", ino)
		}
		if len(steps) == 0 {
			t.Error("Create implied no metadata I/O")
		}
		got, _, err := f.Lookup(root, "hello")
		if err != nil || got != ino {
			t.Fatalf("Lookup = (%d, %v), want %d", got, err, ino)
		}
		attr, _, err := f.Getattr(ino)
		if err != nil {
			t.Fatal(err)
		}
		if attr.Type != fs.Regular || attr.Size != 0 || attr.Ctime != sim.Second {
			t.Fatalf("Getattr = %+v", attr)
		}
	})
}

func TestConformanceCreateDuplicate(t *testing.T) {
	forEachModel(t, func(t *testing.T, f fs.FileSystem) {
		root := f.Root()
		if _, _, err := f.Create(root, "x", fs.Regular, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Create(root, "x", fs.Regular, 0); !errors.Is(err, fs.ErrExist) {
			t.Fatalf("duplicate Create error = %v, want ErrExist", err)
		}
	})
}

func TestConformanceLookupMissing(t *testing.T) {
	forEachModel(t, func(t *testing.T, f fs.FileSystem) {
		if _, _, err := f.Lookup(f.Root(), "ghost"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Lookup(ghost) error = %v, want ErrNotExist", err)
		}
	})
}

func TestConformanceResizeAllocatesAndFrees(t *testing.T) {
	forEachModel(t, func(t *testing.T, f fs.FileSystem) {
		root := f.Root()
		ino, _, err := f.Create(root, "data", fs.Regular, 0)
		if err != nil {
			t.Fatal(err)
		}
		freeBefore := f.BlocksFree()
		const size = 64 << 20 // 64 MB
		if _, err := f.Resize(ino, size, sim.Second); err != nil {
			t.Fatal(err)
		}
		wantBlocks := int64(size / fs.BlockSize)
		attr, _, _ := f.Getattr(ino)
		if attr.Size != size || attr.Blocks != wantBlocks {
			t.Fatalf("after grow: size=%d blocks=%d, want %d/%d", attr.Size, attr.Blocks, int64(size), wantBlocks)
		}
		if used := freeBefore - f.BlocksFree(); used < wantBlocks {
			t.Fatalf("free space dropped by %d, want >= %d", used, wantBlocks)
		}
		// Shrink back to zero: all data blocks return.
		if _, err := f.Resize(ino, 0, 2*sim.Second); err != nil {
			t.Fatal(err)
		}
		if f.BlocksFree() < freeBefore-16 { // allow small meta residue
			t.Fatalf("shrink leaked blocks: free %d, was %d", f.BlocksFree(), freeBefore)
		}
	})
}

func TestConformanceMapCoversFile(t *testing.T) {
	forEachModel(t, func(t *testing.T, f fs.FileSystem) {
		root := f.Root()
		ino, _, _ := f.Create(root, "data", fs.Regular, 0)
		const size = 32 << 20
		if _, err := f.Resize(ino, size, 0); err != nil {
			t.Fatal(err)
		}
		nblocks := int64(size / fs.BlockSize)
		// Every block must map to exactly one disk block; no two file
		// blocks may share one.
		seen := map[int64]bool{}
		for fb := int64(0); fb < nblocks; fb += 128 {
			exts, _, err := f.Map(ino, fb, 128)
			if err != nil {
				t.Fatal(err)
			}
			var covered int64
			for _, e := range exts {
				covered += e.Count
				for b := e.DiskBlock; b < e.DiskBlock+e.Count; b++ {
					if seen[b] {
						t.Fatalf("disk block %d mapped twice", b)
					}
					seen[b] = true
				}
			}
			if covered != 128 {
				t.Fatalf("Map(%d, 128) covered %d blocks", fb, covered)
			}
		}
	})
}

func TestConformanceRemoveFreesSpace(t *testing.T) {
	forEachModel(t, func(t *testing.T, f fs.FileSystem) {
		root := f.Root()
		free0 := f.BlocksFree()
		ino, _, _ := f.Create(root, "victim", fs.Regular, 0)
		if _, err := f.Resize(ino, 8<<20, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Remove(root, "victim", sim.Second); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Lookup(root, "victim"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("removed file still resolves: %v", err)
		}
		if _, _, err := f.Getattr(ino); err == nil {
			t.Fatal("removed inode still stat-able")
		}
		if f.BlocksFree() < free0-16 {
			t.Fatalf("Remove leaked: free=%d, started at %d", f.BlocksFree(), free0)
		}
	})
}

func TestConformanceDirectories(t *testing.T) {
	forEachModel(t, func(t *testing.T, f fs.FileSystem) {
		root := f.Root()
		dir, _, err := f.Create(root, "subdir", fs.Directory, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Create(dir, "inner", fs.Regular, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Remove(root, "subdir", 0); !errors.Is(err, fs.ErrNotEmpty) {
			t.Fatalf("removing non-empty dir error = %v, want ErrNotEmpty", err)
		}
		list, steps, err := f.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != 1 || list[0].Name != "inner" {
			t.Fatalf("ReadDir = %v", list)
		}
		if len(steps) == 0 {
			t.Error("ReadDir implied no I/O")
		}
		if _, err := f.Remove(dir, "inner", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Remove(root, "subdir", 0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceManyFiles(t *testing.T) {
	forEachModel(t, func(t *testing.T, f fs.FileSystem) {
		root := f.Root()
		const n = 500
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("f%04d", i)
			ino, _, err := f.Create(root, name, fs.Regular, 0)
			if err != nil {
				t.Fatalf("create %s: %v", name, err)
			}
			if _, err := f.Resize(ino, 16<<10, 0); err != nil {
				t.Fatalf("resize %s: %v", name, err)
			}
		}
		list, _, err := f.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != n {
			t.Fatalf("ReadDir lists %d files, want %d", len(list), n)
		}
		// Delete every other file, then verify survivors.
		for i := 0; i < n; i += 2 {
			if _, err := f.Remove(root, fmt.Sprintf("f%04d", i), 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < n; i += 2 {
			if _, _, err := f.Lookup(root, fmt.Sprintf("f%04d", i)); err != nil {
				t.Fatalf("survivor f%04d lost: %v", i, err)
			}
		}
	})
}

func TestConformanceENOSPC(t *testing.T) {
	forEachModel(t, func(t *testing.T, f fs.FileSystem) {
		root := f.Root()
		ino, _, _ := f.Create(root, "big", fs.Regular, 0)
		// Ask for more than the device holds.
		_, err := f.Resize(ino, testBlocks*fs.BlockSize*2, 0)
		if !errors.Is(err, fs.ErrNoSpace) {
			t.Fatalf("overfill error = %v, want ErrNoSpace", err)
		}
		// The file system must remain usable afterwards.
		if _, err := f.Resize(ino, 1<<20, 0); err != nil {
			t.Fatalf("fs unusable after ENOSPC: %v", err)
		}
	})
}

func TestConformanceFsyncAndAtime(t *testing.T) {
	forEachModel(t, func(t *testing.T, f fs.FileSystem) {
		root := f.Root()
		ino, _, _ := f.Create(root, "x", fs.Regular, 0)
		steps, err := f.Fsync(ino)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range steps {
			if s.Write && !s.Sync {
				t.Errorf("Fsync produced a deferred write: %+v", s)
			}
		}
		if _, err := f.Fsync(fs.Ino(9999)); err == nil {
			t.Error("Fsync of bad inode succeeded")
		}
		// Atime updates must be deferred (write-back) or journal
		// traffic, never plain reads.
		for i := 0; i < 300; i++ {
			for _, s := range f.TouchAtime(ino, sim.Time(i)*sim.Second) {
				if !s.Write {
					t.Fatalf("TouchAtime produced a read step: %+v", s)
				}
			}
		}
	})
}

func TestConformanceReadaheadHints(t *testing.T) {
	forEachModel(t, func(t *testing.T, f fs.FileSystem) {
		init, max := f.ReadaheadHint()
		if init < 1 || max < init {
			t.Fatalf("ReadaheadHint = (%d, %d)", init, max)
		}
	})
}

func TestXFSMoreContiguousThanExt2(t *testing.T) {
	// The structural claim behind Figure 2's divergence: the same
	// create/delete/grow churn leaves XFS files in fewer extents.
	churn := func(f fs.FileSystem) float64 {
		root := f.Root()
		// Interleave small-file churn with a big-file grow to
		// fragment the bitmap allocator.
		for round := 0; round < 10; round++ {
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("small-%d-%d", round, i)
				ino, _, err := f.Create(root, name, fs.Regular, 0)
				if err != nil {
					panic(err)
				}
				f.Resize(ino, 256<<10, 0)
			}
			for i := 0; i < 50; i += 2 {
				f.Remove(root, fmt.Sprintf("small-%d-%d", round, i), 0)
			}
		}
		ino, _, err := f.Create(root, "big", fs.Regular, 0)
		if err != nil {
			panic(err)
		}
		if _, err := f.Resize(ino, 200<<20, 0); err != nil {
			panic(err)
		}
		exts, _, _ := f.Map(ino, 0, 200<<20/fs.BlockSize)
		return float64(len(exts))
	}
	e2, _ := ext2sim.New(testBlocks)
	xf, _ := xfssim.New(testBlocks, 4)
	ext2Frag := churn(e2)
	xfsFrag := churn(xf)
	if xfsFrag > ext2Frag {
		t.Errorf("xfs big file has %v extents, ext2 %v — expected xfs <= ext2", xfsFrag, ext2Frag)
	}
}

func TestExt3JournalTraffic(t *testing.T) {
	f, err := ext3sim.New(testBlocks, ext3sim.Ordered)
	if err != nil {
		t.Fatal(err)
	}
	root := f.Root()
	for i := 0; i < 100; i++ {
		if _, _, err := f.Create(root, fmt.Sprintf("f%d", i), fs.Regular, 0); err != nil {
			t.Fatal(err)
		}
	}
	appends, commits, _ := f.JournalStats()
	if appends == 0 {
		t.Error("metadata churn generated no journal appends")
	}
	if commits == 0 {
		t.Error("no auto-commit after 100 operations (interval is 64)")
	}
	// Fsync must commit immediately.
	ino, _, _ := f.Lookup(root, "f0")
	if _, err := f.Fsync(ino); err != nil {
		t.Fatal(err)
	}
	_, commits2, _ := f.JournalStats()
	if commits2 <= commits {
		t.Error("Fsync did not commit the journal")
	}
}

func TestExt3AtimeJournalTraffic(t *testing.T) {
	// Reads on ext3 must eventually produce journal I/O; on ext2 they
	// must not produce any synchronous step.
	e3, _ := ext3sim.New(testBlocks, ext3sim.Ordered)
	ino, _, _ := e3.Create(e3.Root(), "r", fs.Regular, 0)
	syncWrites := 0
	for i := 0; i < 1000; i++ {
		for _, s := range e3.TouchAtime(ino, 0) {
			if s.Sync {
				syncWrites++
			}
		}
	}
	if syncWrites == 0 {
		t.Error("1000 atime updates on ext3 produced no journal traffic")
	}
	e2, _ := ext2sim.New(testBlocks)
	ino2, _, _ := e2.Create(e2.Root(), "r", fs.Regular, 0)
	for i := 0; i < 1000; i++ {
		for _, s := range e2.TouchAtime(ino2, 0) {
			if s.Sync {
				t.Fatal("ext2 atime update produced synchronous I/O")
			}
		}
	}
}

func TestExt3Modes(t *testing.T) {
	for _, mode := range []ext3sim.Mode{ext3sim.Ordered, ext3sim.Writeback, ext3sim.Journal} {
		f, err := ext3sim.New(testBlocks, mode)
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
	}
	// Data journaling must log more than ordered for the same growth.
	grow := func(mode ext3sim.Mode) int64 {
		f, _ := ext3sim.New(testBlocks, mode)
		ino, _, _ := f.Create(f.Root(), "x", fs.Regular, 0)
		for i := int64(1); i <= 32; i++ {
			f.Resize(ino, i<<20, 0)
		}
		appends, _, _ := f.JournalStats()
		return appends
	}
	if grow(ext3sim.Journal) <= grow(ext3sim.Ordered) {
		t.Error("data-journal mode did not log more than ordered mode")
	}
}

func TestExt2IndirectMetadataCharged(t *testing.T) {
	// Mapping deep file offsets must cost indirect-block reads on
	// ext2 but not (inline) on xfs — the warm-up asymmetry.
	e2, _ := ext2sim.New(testBlocks)
	ino, _, _ := e2.Create(e2.Root(), "deep", fs.Regular, 0)
	if _, err := e2.Resize(ino, 100<<20, 0); err != nil { // 25600 blocks: double indirect
		t.Fatal(err)
	}
	_, steps, err := e2.Map(ino, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for _, s := range steps {
		if !s.Write {
			reads++
		}
	}
	if reads < 2 {
		t.Errorf("deep ext2 map charged %d meta reads, want >= 2 (double indirect)", reads)
	}
	xf, _ := xfssim.New(testBlocks, 4)
	xino, _, _ := xf.Create(xf.Root(), "deep", fs.Regular, 0)
	if _, err := xf.Resize(xino, 100<<20, 0); err != nil {
		t.Fatal(err)
	}
	_, xsteps, _ := xf.Map(xino, 20000, 1)
	if len(xsteps) > 0 {
		t.Errorf("contiguous xfs map charged %d meta steps, want 0 (inline extents)", len(xsteps))
	}
}
