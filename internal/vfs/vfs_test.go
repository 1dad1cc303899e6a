package vfs

import (
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/fs/ext2sim"
	"repro/internal/sim"
)

// newMount builds an ext2-on-HDD stack with the given cache size in
// pages (L2 pages may be 0).
func newMount(t testing.TB, cachePages, l2Pages int) *Mount {
	t.Helper()
	fsys, err := ext2sim.New(262144) // 1 GB
	if err != nil {
		t.Fatal(err)
	}
	hdd := device.NewHDD(device.DefaultHDD(), sim.NewRNG(11))
	l1 := cache.New(cachePages, cache.NewLRU())
	var l2 *cache.Cache
	if l2Pages > 0 {
		l2 = cache.New(l2Pages, cache.NewLRU())
	}
	return New(fsys, hdd, cache.NewHierarchy(l1, l2), DefaultConfig())
}

func mkFile(t testing.TB, m *Mount, path string, size int64) *FD {
	t.Helper()
	fd, now, err := m.Create(0, path)
	if err != nil {
		t.Fatal(err)
	}
	if size > 0 {
		if _, err := m.Write(now, fd, 0, size); err != nil {
			t.Fatal(err)
		}
	}
	return fd
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	m := newMount(t, 4096, 0)
	fd := mkFile(t, m, "/data", 64<<10)
	if fd.Size() != 64<<10 {
		t.Fatalf("Size = %d, want 64KB", fd.Size())
	}
	n, _, err := m.Read(sim.Second, fd, 0, 4096)
	if err != nil || n != 4096 {
		t.Fatalf("Read = (%d, %v)", n, err)
	}
	st := m.Stats()
	if st.Creates != 1 || st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReadClampsAtEOF(t *testing.T) {
	m := newMount(t, 4096, 0)
	fd := mkFile(t, m, "/f", 10000)
	n, _, err := m.Read(0, fd, 8000, 4096)
	if err != nil || n != 2000 {
		t.Fatalf("Read past EOF = (%d, %v), want 2000", n, err)
	}
	n, _, err = m.Read(0, fd, 20000, 100)
	if err != nil || n != 0 {
		t.Fatalf("Read beyond EOF = (%d, %v), want 0", n, err)
	}
	if _, _, err := m.Read(0, fd, -1, 100); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestWarmReadFasterThanCold(t *testing.T) {
	m := newMount(t, 4096, 0)
	fd := mkFile(t, m, "/f", 1<<20)
	end, _ := m.SyncAll(sim.Second)
	// Drop the cache to force a cold read.
	m.PC.L1.Flush()
	start := end + sim.Second
	_, coldDone, err := m.Read(start, fd, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	cold := coldDone - start
	_, warmDone, err := m.Read(coldDone, fd, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	warm := warmDone - coldDone
	if cold < 50*warm {
		t.Errorf("cold read %v not ≫ warm read %v", cold, warm)
	}
	if warm > 20*sim.Microsecond {
		t.Errorf("warm read %v, want µs-scale", warm)
	}
}

func TestCacheSmallerThanFileKeepsMissing(t *testing.T) {
	// 16 pages of cache, 256-page file: random reads must keep paying
	// disk time (the Figure 1 disk-bound regime).
	m := newMount(t, 16, 0)
	fd := mkFile(t, m, "/big", 256*fs.BlockSize)
	now, _ := m.SyncAll(0)
	m.ResetStats()
	rng := sim.NewRNG(3)
	for i := 0; i < 500; i++ {
		off := rng.Int63n(256) * fs.BlockSize
		_, done, err := m.Read(now, fd, off, 2048)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	// Nearly every op must reach the device (data pages can't stay
	// resident; only the hot metadata pages hit).
	if reads := m.Dev.Stats().Reads; reads < 450 {
		t.Errorf("only %d/500 ops reached the device; cache 16/256 of file should keep missing", reads)
	}
}

func TestSequentialReadaheadHelps(t *testing.T) {
	// Sequential cold scan with adaptive readahead must beat random
	// cold reads of the same pages: prefetch hits plus streaming I/O.
	run := func(sequential bool) sim.Time {
		m := newMount(t, 8192, 0)
		fd := mkFile(t, m, "/scan", 512*fs.BlockSize)
		now, _ := m.SyncAll(0)
		m.PC.L1.Flush()
		order := make([]int64, 512)
		for i := range order {
			order[i] = int64(i)
		}
		if !sequential {
			rand.New(rand.NewPCG(5, 5)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		start := now
		for _, p := range order {
			var err error
			_, now, err = m.Read(now, fd, p*fs.BlockSize, fs.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
		}
		return now - start
	}
	seq := run(true)
	rnd := run(false)
	if seq*3 > rnd {
		t.Errorf("sequential scan %v not ≫3x faster than random %v", seq, rnd)
	}
}

func TestPrefetchCounted(t *testing.T) {
	m := newMount(t, 8192, 0)
	fd := mkFile(t, m, "/scan", 256*fs.BlockSize)
	now, _ := m.SyncAll(0)
	m.PC.L1.Flush()
	m.ResetStats()
	for p := int64(0); p < 64; p++ {
		var err error
		_, now, err = m.Read(now, fd, p*fs.BlockSize, fs.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
	}
	cs := m.PC.L1.Stats()
	if cs.Prefetches == 0 {
		t.Error("sequential scan triggered no prefetch")
	}
	if cs.PrefetchHits == 0 {
		t.Error("no prefetched page was ever used")
	}
}

func TestDentryCache(t *testing.T) {
	m := newMount(t, 4096, 0)
	mkFile(t, m, "/dir1", 0) // actually a file; use mkdir for dirs below
	if _, err := m.Mkdir(0, "/d"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Create(0, "/d/f"); err != nil {
		t.Fatal(err)
	}
	m.stats = Stats{}
	if _, _, err := m.Stat(0, "/d/f"); err != nil {
		t.Fatal(err)
	}
	if m.stats.DentryHits == 0 {
		t.Error("created path not dentry-cached")
	}
	// A fresh path costs a miss.
	if _, _, err := m.Stat(0, "/d"); err != nil {
		t.Fatal(err)
	}
}

func TestWritebackTriggers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DirtyRatio = 0.10
	fsys, _ := ext2sim.New(262144)
	hdd := device.NewHDD(device.DefaultHDD(), sim.NewRNG(12))
	m := New(fsys, hdd, cache.NewHierarchy(cache.New(1024, cache.NewLRU()), nil), cfg)
	fd, now, err := m.Create(0, "/w")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 512; i++ {
		_, err := m.Write(now, fd, i*fs.BlockSize, fs.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		now += sim.Millisecond
	}
	if m.Stats().WritebackRounds == 0 {
		t.Error("write-back never triggered despite dirty ratio 0.10")
	}
	if dirty := m.PC.L1.DirtyCount(); dirty > 400 {
		t.Errorf("dirty pages unbounded: %d", dirty)
	}
}

func TestFsyncFlushes(t *testing.T) {
	m := newMount(t, 4096, 0)
	fd := mkFile(t, m, "/f", 128*fs.BlockSize)
	devWrites := m.Dev.Stats().Writes
	done, err := m.Fsync(sim.Second, fd)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dev.Stats().Writes <= devWrites {
		t.Error("fsync issued no device writes")
	}
	// No dirty *data* pages of this file may remain (global metadata
	// pages dirtied by other bookkeeping are allowed to stay).
	for _, id := range m.PC.L1.CollectDirty(nil, 0) {
		if id.File == uint64(fd.Ino) {
			t.Errorf("dirty data page %v survived fsync", id)
		}
	}
	// Second fsync with nothing dirty must be much cheaper.
	done2, err := m.Fsync(done, fd)
	if err != nil {
		t.Fatal(err)
	}
	if done2-done > done-sim.Second {
		t.Error("idempotent fsync as expensive as the first")
	}
}

func TestUnlinkInvalidates(t *testing.T) {
	m := newMount(t, 4096, 0)
	fd := mkFile(t, m, "/victim", 64*fs.BlockSize)
	if !m.PC.Contains(fs.DataPage(fd.Ino, 0)) {
		t.Fatal("written page not resident")
	}
	if _, err := m.Unlink(sim.Second, "/victim"); err != nil {
		t.Fatal(err)
	}
	if m.PC.Contains(fs.DataPage(fd.Ino, 0)) {
		t.Error("unlinked file's pages still resident")
	}
	if _, _, err := m.Open(sim.Second, "/victim"); err == nil {
		t.Error("unlinked file still opens")
	}
	// Unlinking again must fail cleanly.
	if _, err := m.Unlink(sim.Second, "/victim"); err == nil {
		t.Error("double unlink succeeded")
	}
}

func TestStatAndReadDir(t *testing.T) {
	m := newMount(t, 4096, 0)
	if _, err := m.Mkdir(0, "/sub"); err != nil {
		t.Fatal(err)
	}
	mkFile(t, m, "/sub/a", 5000)
	mkFile(t, m, "/sub/b", 0)
	attr, _, err := m.Stat(0, "/sub/a")
	if err != nil {
		t.Fatal(err)
	}
	if attr.Size != 5000 || attr.Type != fs.Regular {
		t.Fatalf("Stat = %+v", attr)
	}
	list, _, err := m.ReadDir(0, "/sub")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("ReadDir = %v", list)
	}
	if _, _, err := m.Stat(0, "/nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat(missing) = %v, want ErrNotExist", err)
	}
}

func TestL2TierLatencyOrdering(t *testing.T) {
	m := newMount(t, 8, 4096)
	fd := mkFile(t, m, "/f", 64*fs.BlockSize)
	now, _ := m.SyncAll(0)
	// Touch all pages: only 8 stay in L1, the rest demote to L2.
	for p := int64(0); p < 64; p++ {
		var err error
		_, now, err = m.Read(now, fd, p*fs.BlockSize, 1024)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Page 0 must now be in L2 (evicted from tiny L1).
	id := fs.DataPage(fd.Ino, 0)
	if m.PC.L1.Contains(id) {
		t.Skip("page unexpectedly still in L1")
	}
	if !m.PC.L2.Contains(id) {
		t.Fatal("evicted page not demoted to L2")
	}
	start := now
	_, done, err := m.Read(start, fd, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	l2Lat := done - start
	cfg := DefaultConfig()
	if l2Lat < cfg.L2HitPerPage/2 {
		t.Errorf("L2 hit latency %v, want >= ~%v", l2Lat, cfg.L2HitPerPage)
	}
	if l2Lat > 2*sim.Millisecond {
		t.Errorf("L2 hit latency %v looks like a disk access", l2Lat)
	}
}

func TestDeviceFaultPropagates(t *testing.T) {
	fsys, _ := ext2sim.New(262144)
	rng := sim.NewRNG(13)
	inner := device.NewHDD(device.DefaultHDD(), rng)
	// Fault only the data area (beyond the group-0 metadata region at
	// blocks 0..259); metadata I/O keeps working so the file can be
	// created.
	faulty := device.NewFaulty(inner, device.FaultPolicy{
		BadRanges: []device.SectorRange{{First: 260 * 8, Count: 1 << 30}},
	}, sim.NewRNG(14))
	m := New(fsys, faulty, cache.NewHierarchy(cache.New(256, cache.NewLRU()), nil), DefaultConfig())
	fd, now, err := m.Create(0, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Write(now, fd, 0, 8*fs.BlockSize); err != nil {
		t.Fatal(err) // writes land in cache; async write-back failures are absorbed
	}
	m.PC.L1.Flush()
	if _, _, err := m.Read(now, fd, 0, 4096); !errors.Is(err, device.ErrIO) {
		t.Fatalf("Read over bad sectors = %v, want ErrIO", err)
	}
}

func TestOperationTimeMonotonic(t *testing.T) {
	m := newMount(t, 512, 0)
	fd := mkFile(t, m, "/f", 256*fs.BlockSize)
	rng := sim.NewRNG(6)
	now, _ := m.SyncAll(0)
	for i := 0; i < 2000; i++ {
		off := rng.Int63n(256) * fs.BlockSize
		var done sim.Time
		var err error
		switch rng.Intn(4) {
		case 0:
			_, done, err = m.Read(now, fd, off, 2048)
		case 1:
			done, err = m.Write(now, fd, off, 2048)
		case 2:
			_, done, err = m.Stat(now, "/f")
		default:
			done, err = m.Fsync(now, fd)
		}
		if err != nil {
			t.Fatal(err)
		}
		if done < now {
			t.Fatalf("op %d completed before it started: %v < %v", i, done, now)
		}
		now = done
	}
}

func TestSyncAllQuiesces(t *testing.T) {
	m := newMount(t, 4096, 0)
	mkFile(t, m, "/a", 100*fs.BlockSize)
	mkFile(t, m, "/b", 100*fs.BlockSize)
	if m.PC.L1.DirtyCount() == 0 {
		t.Fatal("no dirty pages to flush")
	}
	if _, err := m.SyncAll(sim.Second); err != nil {
		t.Fatal(err)
	}
	if m.PC.L1.DirtyCount() != 0 {
		t.Fatalf("SyncAll left %d dirty pages", m.PC.L1.DirtyCount())
	}
}

func TestAtimeOffDisablesTouch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AtimeUpdates = false
	fsys, _ := ext2sim.New(262144)
	m := New(fsys, device.NewHDD(device.DefaultHDD(), sim.NewRNG(15)),
		cache.NewHierarchy(cache.New(4096, cache.NewLRU()), nil), cfg)
	fd, now, _ := m.Create(0, "/f")
	m.Write(now, fd, 0, fs.BlockSize)
	m.SyncAll(now)
	before := m.PC.L1.DirtyCount()
	if _, _, err := m.Read(now, fd, 0, 512); err != nil {
		t.Fatal(err)
	}
	if m.PC.L1.DirtyCount() > before {
		t.Error("read dirtied metadata despite AtimeUpdates=false")
	}
}
