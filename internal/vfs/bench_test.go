package vfs

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs/ext2sim"
	"repro/internal/sim"
)

// vfsOpLeg is one BenchmarkVFSOp leg: a mount shape, a file to
// operate on, and the operation timed per iteration.
type vfsOpLeg struct {
	name       string
	cachePages int
	filePages  int64
	readahead  cache.Readahead // nil: the file system's hint
	op         func(m *Mount, p *sim.Proc, fd *FD, i int) (sim.Time, error)
}

// BenchmarkVFSOp times single event-mode VFS operations on a RAM disk,
// one process issuing them back to back, and reports bytes and
// allocations per op: the "vfs Read/Write hit and miss" layer leg.
// Each leg's comment names the allocations that remain and the seam
// that owns them; the block layer and vfs's own completions allocate
// nothing (see the pins in alloc_test.go).
func BenchmarkVFSOp(b *testing.B) {
	const hotPages = 64
	legs := []vfsOpLeg{
		// read-hit: one resident page per op. What remains is the
		// []IOStep that ext2's TouchAtime returns for the atime update
		// (fs.FileSystem, the simbench seam).
		{name: "read-hit", cachePages: 4096, filePages: hotPages,
			op: func(m *Mount, p *sim.Proc, fd *FD, i int) (sim.Time, error) {
				_, done, err := m.Read(p.Now(), fd, int64(i%hotPages)*4096, 4096)
				return done, err
			}},
		// read-miss: a page evicted long ago, read from the device with
		// readahead off so every op is a demand miss: Map, submitSync,
		// Insert that evicts. What remains are ext2's Map and TouchAtime
		// results, the []Extent and []IOStep slices behind
		// fs.FileSystem.
		{name: "read-miss", cachePages: 64, filePages: 4096, readahead: cache.NoReadahead{},
			op: func(m *Mount, p *sim.Proc, fd *FD, i int) (sim.Time, error) {
				page := int64(i) * 97 % 4096
				_, done, err := m.Read(p.Now(), fd, page*4096, 4096)
				return done, err
			}},
		// write: overwrite one page of an allocated file; the daemon
		// flushes in the background under dirty throttling. What
		// remains is the daemon's block lookup per flushed page: the
		// slices ext2's Map returns (fs.FileSystem).
		{name: "write", cachePages: 256, filePages: 1024,
			op: func(m *Mount, p *sim.Proc, fd *FD, i int) (sim.Time, error) {
				return m.Write(p.Now(), fd, int64(i)*7%1024*4096, 4096)
			}},
		// stat: a dentry-cache hit plus ext2's Getattr, whose []IOStep
		// result is what remains (fs.FileSystem).
		{name: "stat", cachePages: 4096, filePages: 1,
			op: func(m *Mount, p *sim.Proc, _ *FD, _ int) (sim.Time, error) {
				_, done, err := m.Stat(p.Now(), "/bench/f")
				return done, err
			}},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) { benchVFSOp(b, leg) })
	}
}

func benchVFSOp(b *testing.B, leg vfsOpLeg) {
	fsys, err := ext2sim.New(262144) // 1 GB
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Readahead = leg.readahead
	m := New(fsys, device.NewRAMDisk(1<<30), cache.NewHierarchy(cache.New(leg.cachePages, cache.NewLRU()), nil), cfg)
	if _, err := m.MkdirAll(0, "/bench"); err != nil {
		b.Fatal(err)
	}
	fd := mkFile(b, m, "/bench/f", leg.filePages*4096)
	if _, err := m.SyncAll(0); err != nil {
		b.Fatal(err)
	}
	loop := sim.NewEventLoop(0)
	if err := m.BeginEvents(loop); err != nil {
		b.Fatal(err)
	}
	m.Go(func(p *sim.Proc) {
		m.SetProc(p, 1)
		run := func(i int) {
			done, err := leg.op(m, p, fd, i)
			if err != nil {
				b.Error(err)
			}
			p.WaitUntil(done)
			m.SetProc(p, 1)
		}
		// Warm the cache state, the pools and the queue's free list.
		for i := 0; i < 4096; i++ {
			run(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(i)
		}
		b.StopTimer()
	})
	loop.Run()
	m.EndEvents()
}
