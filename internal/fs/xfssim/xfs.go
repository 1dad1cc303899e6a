// Package xfssim models an XFS-like file system: allocation groups,
// extent-based mapping with delayed-allocation-style contiguity, a
// small delayed-logging journal, and aggressive readahead defaults.
//
// The behavioral differences from ext2sim/ext3sim that matter to the
// paper's experiments: files are laid out in a few large extents (so
// random reads within a file seek over a tighter span and mapping
// needs little or no metadata I/O), and the readahead hint is wider.
// Both make XFS warm the page cache differently in Figure 2.
package xfssim

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/sim"
)

// Geometry constants.
const (
	// inlineExtents is how many extents fit in the inode before the
	// mapping spills into a B+tree.
	inlineExtents = 8
	// extentsPerLeaf is the fan-out of a mapping-tree leaf block.
	extentsPerLeaf = 128
	// agHeaderBlocks reserves AG headers (superblock, AGF, AGI, AGFL).
	agHeaderBlocks = 4
	// LogBlocks is the journal ("log") size: 4096 × 4 KB = 16 MB.
	LogBlocks = 4096
	// logBatch is the delayed-logging batch: operations per log
	// record write (XFS's delayed logging aggregates aggressively).
	logBatch = 8
)

// FS is the XFS model.
type FS struct {
	alloc   *fs.ExtentAlloc
	itab    *fs.InodeTable
	ns      *fs.Namespace
	files   map[fs.Ino]*file
	journal *fs.Journal
	total   int64
	agCount int64
	agSize  int64

	pendingLog int // operations awaiting a delayed-logging record
}

type file struct {
	ext fs.ExtentMap
	ag  int64 // home allocation group
	// btree holds mapping-tree block addresses once the extent list
	// spills out of the inode: index 0 is the root, then leaves.
	btree []int64
}

// New formats an XFS model over totalBlocks blocks with agCount
// allocation groups (0 picks a default of 4).
func New(totalBlocks int64, agCount int64) (*FS, error) {
	if agCount <= 0 {
		agCount = 4
	}
	if totalBlocks < agCount*1024 {
		return nil, fmt.Errorf("xfssim: device too small (%d blocks for %d AGs)", totalBlocks, agCount)
	}
	f := &FS{
		alloc:   fs.NewExtentAlloc(totalBlocks),
		files:   make(map[fs.Ino]*file),
		total:   totalBlocks,
		agCount: agCount,
		agSize:  totalBlocks / agCount,
	}
	for ag := int64(0); ag < agCount; ag++ {
		f.alloc.Reserve(ag*f.agSize, agHeaderBlocks)
	}
	// The log sits in the middle of AG 0, as mkfs.xfs places it.
	logStart := f.agSize / 2
	f.alloc.Reserve(logStart, LogBlocks)
	f.journal = fs.NewJournal(logStart, LogBlocks)
	f.itab = fs.NewInodeTable(f.inodeBlock)
	root := f.itab.Alloc(fs.Directory, 0)
	f.ns = fs.NewNamespace(root.Ino)
	f.files[root.Ino] = &file{ag: 0}
	return f, nil
}

// agOf assigns inodes to allocation groups round-robin, standing in
// for XFS's rotor-based directory placement.
func (f *FS) agOf(ino fs.Ino) int64 { return int64(ino) % f.agCount }

// inodeBlock places inode records in clusters after each AG header.
func (f *FS) inodeBlock(ino fs.Ino) int64 {
	ag := f.agOf(ino)
	idx := int64(ino) / f.agCount
	return ag*f.agSize + agHeaderBlocks + idx/32
}

// Name implements fs.FileSystem.
func (f *FS) Name() string { return "xfs" }

// BlocksTotal implements fs.FileSystem.
func (f *FS) BlocksTotal() int64 { return f.total }

// BlocksFree implements fs.FileSystem.
func (f *FS) BlocksFree() int64 { return f.alloc.Free() }

// Root implements fs.FileSystem.
func (f *FS) Root() fs.Ino { return f.ns.Root() }

// ReadaheadHint implements fs.FileSystem: XFS ships a wider window
// (64 KB initial, 256 KB max).
func (f *FS) ReadaheadHint() (int64, int64) { return 16, 64 }

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

func (f *FS) dirBlockSteps(dir fs.Ino, blockIdx int64) []fs.IOStep {
	df := f.files[dir]
	if df == nil {
		return nil
	}
	if exts := df.ext.Slice(blockIdx, 1); len(exts) > 0 {
		return []fs.IOStep{fs.Read(exts[0].DiskBlock)}
	}
	return []fs.IOStep{fs.Read(f.itab.Block(dir))}
}

func (f *FS) dirDataBlock(dir fs.Ino, blockIdx int64) int64 {
	if df := f.files[dir]; df != nil {
		if exts := df.ext.Slice(blockIdx, 1); len(exts) > 0 {
			return exts[0].DiskBlock
		}
	}
	return f.itab.Block(dir)
}

// Getattr implements fs.FileSystem.
func (f *FS) Getattr(ino fs.Ino) (fs.Inode, []fs.IOStep, error) {
	n, err := f.itab.Get(ino)
	if err != nil {
		return fs.Inode{}, nil, err
	}
	return *n, []fs.IOStep{fs.Read(f.itab.Block(ino))}, nil
}

// logOp batches metadata operations into delayed-logging records.
func (f *FS) logOp(steps []fs.IOStep) []fs.IOStep {
	f.pendingLog++
	if f.pendingLog >= logBatch {
		f.pendingLog = 0
		steps = append(steps, f.journal.Append(1)...)
		steps = append(steps, f.journal.Commit()...)
	}
	return steps
}

// Create implements fs.FileSystem.
func (f *FS) Create(dir fs.Ino, name string, ft fs.FileType, now sim.Time) (fs.Ino, []fs.IOStep, error) {
	if _, err := f.itab.Get(dir); err != nil {
		return 0, nil, err
	}
	node := f.itab.Alloc(ft, now)
	blockIdx, err := f.ns.Insert(dir, name, node.Ino, ft)
	if err != nil {
		f.itab.Del(node.Ino)
		return 0, nil, err
	}
	f.files[node.Ino] = &file{ag: f.agOf(node.Ino)}
	var steps []fs.IOStep
	steps = append(steps, f.dirBlockSteps(dir, blockIdx)...)
	steps = append(steps,
		fs.WriteStep(f.dirDataBlock(dir, blockIdx)),
		fs.WriteStep(f.itab.Block(node.Ino)),
		fs.WriteStep(f.itab.Block(dir)),
	)
	if grow, err := f.growFile(dir, f.ns.Blocks(dir), now); err == nil {
		steps = append(steps, grow...)
	} else {
		f.ns.Remove(dir, name)
		f.itab.Del(node.Ino)
		delete(f.files, node.Ino)
		return 0, nil, err
	}
	if p, err := f.itab.Get(dir); err == nil {
		p.Mtime = now
	}
	return node.Ino, f.logOp(steps), nil
}

func (f *FS) growFile(ino fs.Ino, wantBlocks int64, now sim.Time) ([]fs.IOStep, error) {
	fl := f.files[ino]
	if fl.ext.Blocks() >= wantBlocks {
		return nil, nil
	}
	return f.extend(ino, fl, wantBlocks-fl.ext.Blocks(), now)
}

// extend allocates n blocks with the AG start as goal (or just past
// the file's current tail for contiguous growth).
func (f *FS) extend(ino fs.Ino, fl *file, n int64, now sim.Time) ([]fs.IOStep, error) {
	goal := fl.ag*f.agSize + agHeaderBlocks
	if exts := fl.ext.All(); len(exts) > 0 {
		last := exts[len(exts)-1]
		goal = last.DiskBlock + last.Count
	}
	runs, err := f.alloc.Alloc(n, goal)
	if err != nil {
		return nil, err
	}
	fl.ext.Append(runs)
	steps := []fs.IOStep{
		fs.WriteStep(fl.ag*f.agSize + 1), // AGF (free-space header)
		fs.WriteStep(f.itab.Block(ino)),
	}
	steps = append(steps, f.ensureBtree(fl)...)
	if node, err := f.itab.Get(ino); err == nil {
		node.Blocks = fl.ext.Blocks()
		node.Mtime = now
	}
	return steps, nil
}

// ensureBtree spills the extent list into a B+tree once it outgrows
// the inode, allocating tree blocks as needed.
func (f *FS) ensureBtree(fl *file) []fs.IOStep {
	nExt := fl.ext.Extents()
	if nExt <= inlineExtents {
		return nil
	}
	leaves := (nExt + extentsPerLeaf - 1) / extentsPerLeaf
	want := 1 + leaves // root + leaves
	var steps []fs.IOStep
	for len(fl.btree) < want {
		runs, err := f.alloc.Alloc(1, fl.ag*f.agSize)
		if err != nil {
			break // tree blocks are best-effort; mapping stays inline-priced
		}
		fl.btree = append(fl.btree, runs[0].Start)
		steps = append(steps, fs.WriteStep(runs[0].Start))
	}
	return steps
}

// Map implements fs.FileSystem: inline extent lists cost nothing
// beyond the (cached) inode; spilled maps cost the root plus the leaf
// covering the requested range.
func (f *FS) Map(ino fs.Ino, fileBlock, n int64) ([]fs.Extent, []fs.IOStep, error) {
	fl := f.files[ino]
	if fl == nil {
		return nil, nil, fs.ErrBadInode
	}
	var steps []fs.IOStep
	if len(fl.btree) > 0 {
		steps = append(steps, fs.Read(fl.btree[0]))
		// Which leaf covers this offset? Extents are roughly uniform
		// in coverage; index by extent position.
		exts := fl.ext.All()
		if len(exts) > 0 {
			// Locate the first covering extent by linear proportion —
			// an approximation that keeps leaf choice stable.
			pos := int(int64(len(exts)) * fileBlock / (fl.ext.NextFileBlock() + 1))
			leaf := 1 + pos/extentsPerLeaf
			if leaf < len(fl.btree) {
				steps = append(steps, fs.Read(fl.btree[leaf]))
			}
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
	return f.logOp(steps), nil
}

func (f *FS) shrink(ino fs.Ino, fl *file, wantBlocks int64) []fs.IOStep {
	freed := fl.ext.TruncateTo(wantBlocks)
	for _, r := range freed {
		f.alloc.FreeRun(r.Start, r.Count)
	}
	steps := []fs.IOStep{
		fs.WriteStep(fl.ag*f.agSize + 1),
		fs.WriteStep(f.itab.Block(ino)),
	}
	// Drop now-unneeded btree blocks.
	nExt := fl.ext.Extents()
	want := 0
	if nExt > inlineExtents {
		want = 1 + (nExt+extentsPerLeaf-1)/extentsPerLeaf
	}
	for len(fl.btree) > want {
		blk := fl.btree[len(fl.btree)-1]
		fl.btree = fl.btree[:len(fl.btree)-1]
		f.alloc.FreeRun(blk, 1)
	}
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
		fs.WriteStep(f.itab.Block(ino)),
	)
	if fl := f.files[ino]; fl != nil {
		steps = append(steps, f.shrink(ino, fl, 0)...)
		delete(f.files, ino)
	}
	f.itab.Del(ino)
	if p, err := f.itab.Get(dir); err == nil {
		p.Mtime = now
	}
	return f.logOp(steps), nil
}

// ReadDir implements fs.FileSystem.
func (f *FS) ReadDir(dir fs.Ino) ([]fs.DirEntry, []fs.IOStep, error) {
	list, err := f.ns.List(dir)
	if err != nil {
		return nil, nil, err
	}
	steps := []fs.IOStep{fs.Read(f.itab.Block(dir))}
	if df := f.files[dir]; df != nil {
		for _, e := range df.ext.Slice(0, f.ns.Blocks(dir)) {
			for b := e.DiskBlock; b < e.DiskBlock+e.Count; b++ {
				steps = append(steps, fs.Read(b))
			}
		}
	}
	return list, steps, nil
}

// Fsync implements fs.FileSystem: force the log.
func (f *FS) Fsync(ino fs.Ino) ([]fs.IOStep, error) {
	if _, err := f.itab.Get(ino); err != nil {
		return nil, err
	}
	f.pendingLog = 0
	steps := f.journal.Append(1)
	steps = append(steps, f.journal.Commit()...)
	return steps, nil
}

// TouchAtime implements fs.FileSystem: XFS keeps atime in core and
// flushes it lazily with ordinary write-back — no log traffic, the
// cheapest of the three models.
func (f *FS) TouchAtime(ino fs.Ino, now sim.Time) []fs.IOStep {
	if _, err := f.itab.Get(ino); err != nil {
		return nil
	}
	return []fs.IOStep{fs.WriteStep(f.itab.Block(ino))}
}

var _ fs.FileSystem = (*FS)(nil)
