package fs

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestCheckName(t *testing.T) {
	for _, bad := range []string{"", ".", "..", "a/b", string([]byte{'x', 0}), string(make([]byte, 256))} {
		if err := CheckName(bad); err == nil {
			t.Errorf("CheckName(%q) accepted invalid name", bad)
		}
	}
	for _, good := range []string{"a", "file.txt", "with space", "ünïcode"} {
		if err := CheckName(good); err != nil {
			t.Errorf("CheckName(%q) = %v", good, err)
		}
	}
}

func TestMetaAndDataPageDisjoint(t *testing.T) {
	m := MetaPage(42)
	d := DataPage(42, 42)
	if m == d {
		t.Fatal("metadata and data pages collide in cache identity")
	}
	if m.File&MetaFileBit == 0 {
		t.Fatal("MetaPage not tagged with MetaFileBit")
	}
}

func TestBitmapAllocBasic(t *testing.T) {
	a := NewBitmapAlloc(1000, 100)
	if a.Free() != 1000 || len(a.groupFree) != 10 {
		t.Fatalf("fresh allocator: free=%d groups=%d", a.Free(), len(a.groupFree))
	}
	runs, err := a.Alloc(50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0] != (Run{0, 50}) {
		t.Fatalf("Alloc(50, 0) = %v, want one run [0,50)", runs)
	}
	if a.Free() != 950 {
		t.Fatalf("Free() = %d, want 950", a.Free())
	}
	a.FreeRun(0, 50)
	if a.Free() != 1000 {
		t.Fatalf("Free() after FreeRun = %d, want 1000", a.Free())
	}
}

func TestBitmapAllocGoal(t *testing.T) {
	a := NewBitmapAlloc(1000, 100)
	runs, err := a.Alloc(10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Start != 500 {
		t.Fatalf("goal ignored: got start %d, want 500", runs[0].Start)
	}
}

func TestBitmapAllocWrapsAroundGoal(t *testing.T) {
	a := NewBitmapAlloc(200, 100)
	// Fill group 1 entirely so an allocation with a goal there must
	// wrap back to group 0.
	if _, err := a.Alloc(100, 100); err != nil {
		t.Fatal(err)
	}
	runs, err := a.Alloc(10, 150)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Start >= 100 {
		t.Fatalf("allocation did not wrap: start=%d", runs[0].Start)
	}
}

func TestBitmapAllocNoSpace(t *testing.T) {
	a := NewBitmapAlloc(100, 100)
	if _, err := a.Alloc(101, 0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-allocation error = %v, want ErrNoSpace", err)
	}
	if a.Free() != 100 {
		t.Fatal("failed allocation leaked blocks")
	}
	if _, err := a.Alloc(100, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1, 0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("full-device allocation error = %v, want ErrNoSpace", err)
	}
}

func TestBitmapAllocFragmentation(t *testing.T) {
	a := NewBitmapAlloc(100, 100)
	first, err := a.Alloc(60, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Free every other 10-block chunk of the first 60.
	a.FreeRun(0, 10)
	a.FreeRun(20, 10)
	a.FreeRun(40, 10)
	runs, err := a.Alloc(30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("fragmented alloc returned %d runs, want 3 (%v)", len(runs), runs)
	}
	_ = first
}

func TestBitmapDoubleFreePanics(t *testing.T) {
	a := NewBitmapAlloc(100, 100)
	if _, err := a.Alloc(10, 0); err != nil {
		t.Fatal(err)
	}
	a.FreeRun(0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.FreeRun(0, 10)
}

func TestBitmapAllocProperty(t *testing.T) {
	// Property: alloc/free round-trips preserve the free count and
	// never hand out the same block twice.
	a := NewBitmapAlloc(4096, 512)
	type held struct{ runs []Run }
	var live []held
	owned := map[int64]bool{}
	f := func(sz uint8, goalSeed uint16, free bool) bool {
		if free && len(live) > 0 {
			h := live[0]
			live = live[1:]
			for _, r := range h.runs {
				a.FreeRun(r.Start, r.Count)
				for b := r.Start; b < r.Start+r.Count; b++ {
					delete(owned, b)
				}
			}
			return true
		}
		n := int64(sz%32) + 1
		runs, err := a.Alloc(n, int64(goalSeed)%4096)
		if errors.Is(err, ErrNoSpace) {
			return true
		}
		if err != nil {
			return false
		}
		var got int64
		for _, r := range runs {
			got += r.Count
			for b := r.Start; b < r.Start+r.Count; b++ {
				if owned[b] {
					return false // double allocation
				}
				owned[b] = true
			}
		}
		if got != n {
			return false
		}
		live = append(live, held{runs})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if int64(len(owned)) != a.total-a.Free() {
		t.Fatalf("accounting drift: owned=%d, allocator says %d", len(owned), a.total-a.Free())
	}
}

func TestExtentAllocContiguity(t *testing.T) {
	a := NewExtentAlloc(100000)
	runs, err := a.Alloc(5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("extent allocator fragmented a fresh disk: %d runs", len(runs))
	}
}

func TestExtentAllocBestFit(t *testing.T) {
	a := NewExtentAlloc(1000)
	// Carve the free space into holes of 100, 20, 300 (by reserving
	// separators).
	a.Reserve(100, 10) // free: [0,100) [110,...)
	a.Reserve(130, 10) // free: [0,100) [110,130) [140,1000)
	runs, err := a.Alloc(15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Start != 110 {
		t.Fatalf("best fit chose %v, want the 20-block hole at 110", runs)
	}
}

func TestExtentAllocCoalesce(t *testing.T) {
	a := NewExtentAlloc(1000)
	r1, _ := a.Alloc(100, 0)
	r2, _ := a.Alloc(100, 0)
	a.FreeRun(r1[0].Start, 100)
	a.FreeRun(r2[0].Start, 100)
	if len(a.exts) != 1 {
		t.Fatalf("adjacent frees not coalesced: %d extents", len(a.exts))
	}
	if a.Free() != 1000 {
		t.Fatalf("free count = %d, want 1000", a.Free())
	}
}

func TestExtentAllocDoubleFreePanics(t *testing.T) {
	a := NewExtentAlloc(1000)
	runs, _ := a.Alloc(10, 0)
	a.FreeRun(runs[0].Start, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.FreeRun(runs[0].Start, 10)
}

func TestExtentAllocProperty(t *testing.T) {
	a := NewExtentAlloc(8192)
	var live []Run
	f := func(sz uint8, goalSeed uint16, free bool) bool {
		if free && len(live) > 0 {
			r := live[len(live)-1]
			live = live[:len(live)-1]
			a.FreeRun(r.Start, r.Count)
			return true
		}
		n := int64(sz%64) + 1
		runs, err := a.Alloc(n, int64(goalSeed)%8192)
		if errors.Is(err, ErrNoSpace) {
			return true
		}
		if err != nil {
			return false
		}
		var got int64
		for _, r := range runs {
			got += r.Count
			live = append(live, r)
		}
		return got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Return everything and verify we end perfectly coalesced.
	for _, r := range live {
		a.FreeRun(r.Start, r.Count)
	}
	if a.Free() != 8192 || len(a.exts) != 1 {
		t.Fatalf("after full free: free=%d extents=%d, want 8192/1", a.Free(), len(a.exts))
	}
}

func TestNamespaceBasics(t *testing.T) {
	ns := NewNamespace(1)
	if ns.Root() != 1 || ns.dirs[1] == nil {
		t.Fatal("root not set up")
	}
	if _, err := ns.Insert(1, "a", 2, Regular); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Insert(1, "a", 3, Regular); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate insert error = %v, want ErrExist", err)
	}
	ino, typ, _, err := ns.Lookup(1, "a")
	if err != nil || ino != 2 || typ != Regular {
		t.Fatalf("Lookup = (%d, %v, %v)", ino, typ, err)
	}
	if _, _, _, err := ns.Lookup(1, "zzz"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing lookup error = %v, want ErrNotExist", err)
	}
	if _, _, _, err := ns.Lookup(2, "x"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("lookup in file error = %v, want ErrNotDir", err)
	}
}

func TestNamespaceDirectoryLifecycle(t *testing.T) {
	ns := NewNamespace(1)
	ns.Insert(1, "d", 2, Directory)
	if ns.dirs[2] == nil {
		t.Fatal("created directory not a directory")
	}
	ns.Insert(2, "child", 3, Regular)
	if _, _, _, err := ns.Remove(1, "d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("removing non-empty dir error = %v, want ErrNotEmpty", err)
	}
	if _, _, _, err := ns.Remove(2, "child"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ns.Remove(1, "d"); err != nil {
		t.Fatalf("removing emptied dir: %v", err)
	}
	if ns.dirs[2] != nil {
		t.Fatal("removed directory still registered")
	}
}

func TestNamespaceBlocksGrow(t *testing.T) {
	ns := NewNamespace(1)
	if ns.Blocks(1) != 1 {
		t.Fatalf("empty dir blocks = %d, want 1", ns.Blocks(1))
	}
	for i := 0; i < entriesPerBlock+1; i++ {
		name := "f" + itoa(i)
		if _, err := ns.Insert(1, name, Ino(10+i), Regular); err != nil {
			t.Fatal(err)
		}
	}
	if ns.Blocks(1) != 2 {
		t.Fatalf("dir with %d entries occupies %d blocks, want 2", entriesPerBlock+1, ns.Blocks(1))
	}
}

func TestNamespaceCompaction(t *testing.T) {
	ns := NewNamespace(1)
	const n = 300
	for i := 0; i < n; i++ {
		ns.Insert(1, "f"+itoa(i), Ino(10+i), Regular)
	}
	for i := 0; i < n-10; i++ {
		if _, _, _, err := ns.Remove(1, "f"+itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Survivors must still resolve after compaction.
	for i := n - 10; i < n; i++ {
		if _, _, _, err := ns.Lookup(1, "f"+itoa(i)); err != nil {
			t.Fatalf("entry f%d lost after compaction: %v", i, err)
		}
	}
	if len(ns.dirs[1].entries) != 10 {
		t.Fatalf("Len = %d, want 10", len(ns.dirs[1].entries))
	}
}

func TestNamespaceList(t *testing.T) {
	ns := NewNamespace(1)
	for _, name := range []string{"charlie", "alpha", "bravo"} {
		ns.Insert(1, name, 2, Regular)
	}
	list, err := ns.List(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[0].Name != "alpha" || list[2].Name != "charlie" {
		t.Fatalf("List not sorted: %v", list)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	pos := len(b)
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(b[pos:])
}

func TestExtentMapAppendSliceRoundTrip(t *testing.T) {
	var m ExtentMap
	m.Append([]Run{{100, 10}, {200, 5}, {205, 5}}) // last two coalesce
	if m.Blocks() != 20 {
		t.Fatalf("Blocks = %d, want 20", m.Blocks())
	}
	if m.Extents() != 2 {
		t.Fatalf("Extents = %d, want 2 (coalesced)", m.Extents())
	}
	// Slice across the extent boundary.
	got := m.Slice(8, 4)
	want := []Extent{
		{FileBlock: 8, DiskBlock: 108, Count: 2},
		{FileBlock: 10, DiskBlock: 200, Count: 2},
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Slice(8,4) = %v, want %v", got, want)
	}
}

func TestExtentMapSliceEdges(t *testing.T) {
	var m ExtentMap
	m.Append([]Run{{0, 10}})
	if got := m.Slice(10, 5); got != nil {
		t.Fatalf("Slice past EOF = %v, want nil", got)
	}
	if got := m.Slice(0, 0); got != nil {
		t.Fatalf("empty Slice = %v, want nil", got)
	}
	got := m.Slice(9, 100)
	if len(got) != 1 || got[0].Count != 1 {
		t.Fatalf("clipped Slice = %v", got)
	}
}

func TestExtentMapTruncate(t *testing.T) {
	var m ExtentMap
	m.Append([]Run{{100, 10}, {300, 10}})
	freed := m.TruncateTo(15)
	if m.Blocks() != 15 {
		t.Fatalf("Blocks after truncate = %d, want 15", m.Blocks())
	}
	var freedTotal int64
	for _, r := range freed {
		freedTotal += r.Count
	}
	if freedTotal != 5 {
		t.Fatalf("freed %d blocks, want 5", freedTotal)
	}
	// Truncate to zero frees the rest.
	freed = m.TruncateTo(0)
	freedTotal = 0
	for _, r := range freed {
		freedTotal += r.Count
	}
	if freedTotal != 15 || m.Blocks() != 0 {
		t.Fatalf("full truncate freed %d, left %d", freedTotal, m.Blocks())
	}
}

func TestExtentMapProperty(t *testing.T) {
	// Property: after appending arbitrary runs, every logical block
	// maps to exactly one physical block and Slice agrees with a
	// naive map.
	var m ExtentMap
	naive := map[int64]int64{}
	next := int64(0)
	diskCursor := int64(0)
	f := func(sz uint8, gap uint8) bool {
		n := int64(sz%16) + 1
		start := diskCursor + int64(gap%5) // occasional gaps break contiguity
		diskCursor = start + n
		m.Append([]Run{{start, n}})
		for i := int64(0); i < n; i++ {
			naive[next+i] = start + i
		}
		next += n
		// Check a random-ish probe.
		probe := (next * 7919) % next
		exts := m.Slice(probe, 1)
		if len(exts) != 1 || exts[0].Count != 1 {
			return false
		}
		return exts[0].DiskBlock == naive[probe]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestJournalAppendCommit(t *testing.T) {
	j := NewJournal(1000, 8)
	steps := j.Append(3)
	if len(steps) != 3 {
		t.Fatalf("Append(3) returned %d steps", len(steps))
	}
	for i, s := range steps {
		if !s.Write || !s.Sync {
			t.Fatalf("journal step %d not a sync write: %+v", i, s)
		}
		if s.Block != 1000+int64(i) {
			t.Fatalf("journal block %d = %d, want %d (sequential)", i, s.Block, 1000+i)
		}
	}
	if j.pending != 3 {
		t.Fatalf("Pending = %d, want 3", j.pending)
	}
	commit := j.Commit()
	if len(commit) != 1 || commit[0].Block != 1003 {
		t.Fatalf("Commit = %v, want one write at 1003", commit)
	}
	if j.pending != 0 {
		t.Fatal("Pending not cleared by Commit")
	}
	if again := j.Commit(); again != nil {
		t.Fatalf("empty Commit = %v, want nil", again)
	}
}

func TestJournalWraps(t *testing.T) {
	j := NewJournal(0, 4)
	j.Append(6)
	_, _, wraps := j.Stats()
	if wraps != 1 {
		t.Fatalf("wraps = %d, want 1", wraps)
	}
	steps := j.Append(1)
	if steps[0].Block >= 4 {
		t.Fatalf("wrapped journal wrote outside region: block %d", steps[0].Block)
	}
}

func TestInodeTable(t *testing.T) {
	tab := NewInodeTable(func(ino Ino) int64 { return int64(ino) * 10 })
	root := tab.Alloc(Directory, 5*sim.Second)
	if root.Ino != 1 || root.Nlink != 2 {
		t.Fatalf("root = %+v", root)
	}
	f := tab.Alloc(Regular, 6*sim.Second)
	if f.Ino != 2 || f.Nlink != 1 || f.Ctime != 6*sim.Second {
		t.Fatalf("file = %+v", f)
	}
	if tab.Block(f.Ino) != 20 {
		t.Fatalf("Block = %d, want 20", tab.Block(f.Ino))
	}
	if _, err := tab.Get(99); !errors.Is(err, ErrBadInode) {
		t.Fatalf("Get(99) error = %v, want ErrBadInode", err)
	}
	tab.Del(f.Ino)
	if _, err := tab.Get(f.Ino); err == nil {
		t.Fatal("deleted inode still present")
	}
	if len(tab.nodes) != 1 {
		t.Fatalf("Count = %d, want 1", len(tab.nodes))
	}
}

func TestIOStepConstructors(t *testing.T) {
	if s := Read(5); s.Write || s.Sync || s.Block != 5 {
		t.Fatalf("Read(5) = %+v", s)
	}
	if s := WriteStep(6); !s.Write || s.Sync {
		t.Fatalf("WriteStep(6) = %+v", s)
	}
	if s := SyncWrite(7); !s.Write || !s.Sync {
		t.Fatalf("SyncWrite(7) = %+v", s)
	}
}
