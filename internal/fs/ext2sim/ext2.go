// Package ext2sim models an Ext2-like file system: block-group layout
// with per-group bitmaps and inode tables, first-fit block allocation
// anchored at a goal, and classic 12-direct/three-level-indirect block
// mapping. No journal.
//
// What the model charges for, and where, is the point: data lands in
// the inode's block group (short seeks within a file), mapping large
// files costs indirect-block reads until those blocks are cached, and
// namespace operations read and dirty directory, inode-table, and
// bitmap blocks at their real relative locations.
package ext2sim

import (
	"fmt"
	"sort"

	"repro/internal/fs"
	"repro/internal/sim"
)

// Geometry fixes the block-group layout.
const (
	// GroupBlocks is the size of one block group (32768 × 4 KB =
	// 128 MB), as in ext2 with 4 KB blocks.
	GroupBlocks = 32768
	// InodesPerGroup matches a common mke2fs ratio.
	InodesPerGroup = 8192
	// addrsPerBlock is how many 4-byte block addresses fit one block.
	addrsPerBlock = 1024
	// groupMetaBlocks is the per-group overhead: superblock copy +
	// group descriptors (2), block bitmap (1), inode bitmap (1), and
	// the inode table (InodesPerGroup / 32 inodes per block).
	groupMetaBlocks = 4 + InodesPerGroup/32
	// directBlocks is the number of block addresses stored directly
	// in the inode.
	directBlocks = 12
)

// FS is the Ext2 model. Create instances with New.
type FS struct {
	alloc *fs.BitmapAlloc
	itab  *fs.InodeTable
	ns    *fs.Namespace
	files map[fs.Ino]*file
	total int64
}

type file struct {
	ext  fs.ExtentMap
	meta map[int64]int64 // meta key -> disk block of the indirect block
	goal int64           // preferred next allocation block
}

// New formats an Ext2 model over totalBlocks file-system blocks.
func New(totalBlocks int64) (*FS, error) {
	if totalBlocks < 2*GroupBlocks {
		return nil, fmt.Errorf("ext2sim: device too small (%d blocks, need >= %d)",
			totalBlocks, 2*GroupBlocks)
	}
	f := &FS{
		alloc: fs.NewBitmapAlloc(totalBlocks, GroupBlocks),
		files: make(map[fs.Ino]*file),
		total: totalBlocks,
	}
	// Reserve per-group metadata regions.
	for g := int64(0); g*GroupBlocks < totalBlocks; g++ {
		start := g * GroupBlocks
		n := int64(groupMetaBlocks)
		if start+n > totalBlocks {
			n = totalBlocks - start
		}
		f.alloc.Reserve(start, n)
	}
	f.itab = fs.NewInodeTable(f.inodeBlock)
	root := f.itab.Alloc(fs.Directory, 0)
	f.ns = fs.NewNamespace(root.Ino)
	f.files[root.Ino] = &file{meta: make(map[int64]int64), goal: int64(groupMetaBlocks)}
	return f, nil
}

// inodeBlock maps an inode number to the block of its on-disk record
// within its group's inode table.
func (f *FS) inodeBlock(ino fs.Ino) int64 {
	idx := int64(ino-1) % InodesPerGroup
	group := (int64(ino-1) / InodesPerGroup) % (f.total / GroupBlocks)
	return group*GroupBlocks + 4 + idx/32
}

// bitmapBlock returns the block-bitmap block of the group containing
// disk block b.
func (f *FS) bitmapBlock(b int64) int64 { return (b/GroupBlocks)*GroupBlocks + 2 }

// inodeBitmapBlock returns the inode-bitmap block for ino's group.
func (f *FS) inodeBitmapBlock(ino fs.Ino) int64 {
	group := (int64(ino-1) / InodesPerGroup) % (f.total / GroupBlocks)
	return group*GroupBlocks + 3
}

// Name implements fs.FileSystem.
func (f *FS) Name() string { return "ext2" }

// BlocksTotal implements fs.FileSystem.
func (f *FS) BlocksTotal() int64 { return f.total }

// BlocksFree implements fs.FileSystem.
func (f *FS) BlocksFree() int64 { return f.alloc.Free() }

// Root implements fs.FileSystem.
func (f *FS) Root() fs.Ino { return f.ns.Root() }

// ReadaheadHint implements fs.FileSystem: Linux-era defaults, 16 KB
// initial window growing to 128 KB.
func (f *FS) ReadaheadHint() (int64, int64) { return 4, 32 }

// Lookup implements fs.FileSystem.
func (f *FS) Lookup(dir fs.Ino, name string) (fs.Ino, []fs.IOStep, error) {
	ino, _, blockIdx, err := f.ns.Lookup(dir, name)
	if err != nil {
		return 0, nil, err
	}
	steps := f.dirBlockSteps(dir, blockIdx)
	steps = append(steps, fs.Read(f.itab.Block(ino)))
	return ino, steps, nil
}

// dirBlockSteps returns the read of the directory data block with the
// given index, resolving it through the directory's own extent map.
func (f *FS) dirBlockSteps(dir fs.Ino, blockIdx int64) []fs.IOStep {
	df := f.files[dir]
	if df == nil {
		return nil
	}
	exts := df.ext.Slice(blockIdx, 1)
	if len(exts) == 0 {
		// Directory data not yet allocated (tiny dir stored inline).
		return []fs.IOStep{fs.Read(f.itab.Block(dir))}
	}
	return []fs.IOStep{fs.Read(exts[0].DiskBlock)}
}

// Getattr implements fs.FileSystem.
func (f *FS) Getattr(ino fs.Ino) (fs.Inode, []fs.IOStep, error) {
	n, err := f.itab.Get(ino)
	if err != nil {
		return fs.Inode{}, nil, err
	}
	return *n, []fs.IOStep{fs.Read(f.itab.Block(ino))}, nil
}

// Create implements fs.FileSystem.
func (f *FS) Create(dir fs.Ino, name string, ft fs.FileType, now sim.Time) (fs.Ino, []fs.IOStep, error) {
	if _, err := f.itab.Get(dir); err != nil {
		return 0, nil, err
	}
	// Reserve the inode first so the namespace and table stay
	// consistent on failure.
	node := f.itab.Alloc(ft, now)
	blockIdx, err := f.ns.Insert(dir, name, node.Ino, ft)
	if err != nil {
		f.itab.Del(node.Ino)
		return 0, nil, err
	}
	group := (int64(node.Ino-1) / InodesPerGroup) % (f.total / GroupBlocks)
	f.files[node.Ino] = &file{
		meta: make(map[int64]int64),
		goal: group*GroupBlocks + groupMetaBlocks,
	}
	var steps []fs.IOStep
	// Read-modify-write of the directory block holding the new entry.
	steps = append(steps, f.dirBlockSteps(dir, blockIdx)...)
	steps = append(steps,
		fs.WriteStep(f.dirDataBlock(dir, blockIdx)),
		fs.WriteStep(f.itab.Block(node.Ino)), // new inode record
		fs.WriteStep(f.inodeBitmapBlock(node.Ino)),
		fs.WriteStep(f.itab.Block(dir)), // parent mtime/size
	)
	// Growing the directory past a block boundary allocates a block.
	if grow, err := f.growFile(dir, f.ns.Blocks(dir), now); err == nil {
		steps = append(steps, grow...)
	} else {
		// Directory growth failure: undo everything.
		f.ns.Remove(dir, name)
		f.itab.Del(node.Ino)
		delete(f.files, node.Ino)
		return 0, nil, err
	}
	if p, err := f.itab.Get(dir); err == nil {
		p.Mtime = now
	}
	return node.Ino, steps, nil
}

// dirDataBlock resolves a directory data block index to a disk block
// for write charging, falling back to the inode block for inline
// directories.
func (f *FS) dirDataBlock(dir fs.Ino, blockIdx int64) int64 {
	df := f.files[dir]
	if df != nil {
		if exts := df.ext.Slice(blockIdx, 1); len(exts) > 0 {
			return exts[0].DiskBlock
		}
	}
	return f.itab.Block(dir)
}

// growFile ensures ino has at least wantBlocks blocks, allocating the
// difference. Used for directory growth; file growth goes through
// Resize.
func (f *FS) growFile(ino fs.Ino, wantBlocks int64, now sim.Time) ([]fs.IOStep, error) {
	fl := f.files[ino]
	have := fl.ext.Blocks()
	if have >= wantBlocks {
		return nil, nil
	}
	return f.extend(ino, fl, wantBlocks-have, now)
}

// extend allocates n more blocks for the file, returning the metadata
// write steps (bitmaps, inode, new indirect blocks).
func (f *FS) extend(ino fs.Ino, fl *file, n int64, now sim.Time) ([]fs.IOStep, error) {
	runs, err := f.alloc.Alloc(n, fl.goal)
	if err != nil {
		return nil, err
	}
	var steps []fs.IOStep
	// One bitmap write per distinct group touched.
	seenGroup := map[int64]bool{}
	for _, r := range runs {
		for g := r.Start / GroupBlocks; g <= (r.Start+r.Count-1)/GroupBlocks; g++ {
			if !seenGroup[g] {
				seenGroup[g] = true
				steps = append(steps, fs.WriteStep(g*GroupBlocks+2))
			}
		}
	}
	oldBlocks := fl.ext.Blocks()
	fl.ext.Append(runs)
	fl.goal = runs[len(runs)-1].Start + runs[len(runs)-1].Count
	// Allocate indirect blocks newly needed for the grown range and
	// charge their writes (plus parent pointer updates).
	metaSteps, err := f.ensureMeta(fl, oldBlocks, fl.ext.Blocks())
	if err != nil {
		return nil, err
	}
	steps = append(steps, metaSteps...)
	steps = append(steps, fs.WriteStep(f.itab.Block(ino))) // size/blocks update
	if node, err := f.itab.Get(ino); err == nil {
		node.Blocks = fl.ext.Blocks()
		node.Mtime = now
	}
	return steps, nil
}

// metaKeys returns the indirect-block keys needed to map file block k,
// root first. Key encoding: level<<32 | index.
func metaKeys(k int64) []int64 {
	if k < directBlocks {
		return nil
	}
	j := k - directBlocks
	if j < addrsPerBlock {
		return []int64{1 << 32} // the single indirect block
	}
	j -= addrsPerBlock
	if j < addrsPerBlock*addrsPerBlock {
		return []int64{
			2 << 32,                       // double-indirect root
			2<<32 | (j/addrsPerBlock + 1), // second-level block
		}
	}
	j -= addrsPerBlock * addrsPerBlock
	l2 := j / (addrsPerBlock * addrsPerBlock)
	l3 := (j / addrsPerBlock) % addrsPerBlock
	return []int64{
		3 << 32,                         // triple-indirect root
		4<<32 | l2,                      // second level
		5<<32 | (l2*addrsPerBlock + l3), // third level
	}
}

// ensureMeta allocates indirect blocks needed for file blocks
// [oldBlocks, newBlocks) and returns their write steps.
func (f *FS) ensureMeta(fl *file, oldBlocks, newBlocks int64) ([]fs.IOStep, error) {
	var steps []fs.IOStep
	// Only boundary blocks can introduce new meta keys; stepping by
	// addrsPerBlock-sized strides keeps this O(file/4MB).
	for k := oldBlocks; k < newBlocks; {
		for _, key := range metaKeys(k) {
			if _, ok := fl.meta[key]; ok {
				continue
			}
			runs, err := f.alloc.Alloc(1, fl.goal)
			if err != nil {
				return nil, err
			}
			fl.meta[key] = runs[0].Start
			steps = append(steps, fs.WriteStep(runs[0].Start))
		}
		if k < directBlocks {
			k = directBlocks
		} else {
			k += addrsPerBlock
		}
	}
	return steps, nil
}

// Map implements fs.FileSystem.
func (f *FS) Map(ino fs.Ino, fileBlock, n int64) ([]fs.Extent, []fs.IOStep, error) {
	fl := f.files[ino]
	if fl == nil {
		return nil, nil, fs.ErrBadInode
	}
	var steps []fs.IOStep
	seen := map[int64]bool{}
	for k := fileBlock; k < fileBlock+n; {
		for _, key := range metaKeys(k) {
			if seen[key] {
				continue
			}
			seen[key] = true
			if blk, ok := fl.meta[key]; ok {
				steps = append(steps, fs.Read(blk))
			}
		}
		if k < directBlocks {
			k++
		} else {
			// Advance to the next indirect-block boundary.
			k += addrsPerBlock - ((k - directBlocks) % addrsPerBlock)
		}
	}
	return fl.ext.Slice(fileBlock, n), steps, nil
}

// Resize implements fs.FileSystem.
func (f *FS) Resize(ino fs.Ino, size int64, now sim.Time) ([]fs.IOStep, error) {
	node, err := f.itab.Get(ino)
	if err != nil {
		return nil, err
	}
	if node.Type == fs.Directory {
		return nil, fs.ErrIsDir
	}
	fl := f.files[ino]
	wantBlocks := (size + fs.BlockSize - 1) / fs.BlockSize
	var steps []fs.IOStep
	switch {
	case wantBlocks > fl.ext.Blocks():
		steps, err = f.extend(ino, fl, wantBlocks-fl.ext.Blocks(), now)
		if err != nil {
			return nil, err
		}
	case wantBlocks < fl.ext.Blocks():
		steps = f.shrink(ino, fl, wantBlocks)
	}
	node.Size = size
	node.Blocks = fl.ext.Blocks()
	node.Mtime = now
	return steps, nil
}

// shrink frees blocks beyond wantBlocks and any indirect blocks no
// longer needed.
func (f *FS) shrink(ino fs.Ino, fl *file, wantBlocks int64) []fs.IOStep {
	freed := fl.ext.TruncateTo(wantBlocks)
	var steps []fs.IOStep
	seenGroup := map[int64]bool{}
	for _, r := range freed {
		f.alloc.FreeRun(r.Start, r.Count)
		for g := r.Start / GroupBlocks; g <= (r.Start+r.Count-1)/GroupBlocks; g++ {
			if !seenGroup[g] {
				seenGroup[g] = true
				steps = append(steps, fs.WriteStep(g*GroupBlocks+2))
			}
		}
	}
	// Free meta blocks that now map nothing.
	needed := map[int64]bool{}
	for k := int64(0); k < wantBlocks; {
		for _, key := range metaKeys(k) {
			needed[key] = true
		}
		if k < directBlocks {
			k++
		} else {
			k += addrsPerBlock - ((k - directBlocks) % addrsPerBlock)
		}
	}
	// Free stale meta blocks in key order: iteration order decides
	// both the allocator's free-list state (and so every later
	// allocation) and the emitted WriteStep sequence.
	stale := make([]int64, 0, len(fl.meta))
	for key := range fl.meta {
		if !needed[key] {
			stale = append(stale, key)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, key := range stale {
		blk := fl.meta[key]
		f.alloc.FreeRun(blk, 1)
		delete(fl.meta, key)
		steps = append(steps, fs.WriteStep(f.bitmapBlock(blk)))
	}
	steps = append(steps, fs.WriteStep(f.itab.Block(ino)))
	return steps
}

// Remove implements fs.FileSystem.
func (f *FS) Remove(dir fs.Ino, name string, now sim.Time) ([]fs.IOStep, error) {
	ino, _, blockIdx, err := f.ns.Remove(dir, name)
	if err != nil {
		return nil, err
	}
	var steps []fs.IOStep
	steps = append(steps, f.dirBlockSteps(dir, blockIdx)...)
	steps = append(steps,
		fs.WriteStep(f.dirDataBlock(dir, blockIdx)),
		fs.WriteStep(f.itab.Block(dir)),
		fs.WriteStep(f.inodeBitmapBlock(ino)),
		fs.WriteStep(f.itab.Block(ino)),
	)
	// Free data and meta blocks.
	if fl := f.files[ino]; fl != nil {
		steps = append(steps, f.shrink(ino, fl, 0)...)
		delete(f.files, ino)
	}
	f.itab.Del(ino)
	if p, err := f.itab.Get(dir); err == nil {
		p.Mtime = now
	}
	return steps, nil
}

// ReadDir implements fs.FileSystem.
func (f *FS) ReadDir(dir fs.Ino) ([]fs.DirEntry, []fs.IOStep, error) {
	list, err := f.ns.List(dir)
	if err != nil {
		return nil, nil, err
	}
	// Scan every directory data block.
	var steps []fs.IOStep
	steps = append(steps, fs.Read(f.itab.Block(dir)))
	nblocks := f.ns.Blocks(dir)
	if df := f.files[dir]; df != nil {
		for _, e := range df.ext.Slice(0, nblocks) {
			for b := e.DiskBlock; b < e.DiskBlock+e.Count; b++ {
				steps = append(steps, fs.Read(b))
			}
		}
	}
	return list, steps, nil
}

// Fsync implements fs.FileSystem: without a journal, fsync writes the
// inode (and lets the data flush, which the VFS handles) — cheap but
// unsafe, the classic ext2 trade.
func (f *FS) Fsync(ino fs.Ino) ([]fs.IOStep, error) {
	if _, err := f.itab.Get(ino); err != nil {
		return nil, err
	}
	return []fs.IOStep{fs.SyncWrite(f.itab.Block(ino))}, nil
}

// TouchAtime implements fs.FileSystem: ext2 just dirties the inode
// block in cache; write-back flushes it eventually.
func (f *FS) TouchAtime(ino fs.Ino, now sim.Time) []fs.IOStep {
	if _, err := f.itab.Get(ino); err != nil {
		return nil
	}
	return []fs.IOStep{fs.WriteStep(f.itab.Block(ino))}
}

// ReserveRange removes [start, start+count) from the data area; the
// journaled variant (ext3sim) uses it to carve out its journal file.
// The range must be free.
func (f *FS) ReserveRange(start, count int64) { f.alloc.Reserve(start, count) }

var _ fs.FileSystem = (*FS)(nil)
