// Package ext3sim models an Ext3-like file system: the ext2sim layout
// plus a physical write-ahead journal. Metadata updates append
// records to a contiguous journal region and are committed either
// every CommitOps operations (standing in for the 5-second commit
// timer) or on fsync. Reads additionally generate journaled atime
// traffic, which is why even a read-only benchmark behaves differently
// on ext3 than on ext2 — one of the paper's Figure 2 lessons.
package ext3sim

import (
	"repro/internal/fs"
	"repro/internal/fs/ext2sim"
	"repro/internal/sim"
)

// Mode selects the data-journaling mode. Only metadata costs differ
// between the modes in this model: Journal mode additionally logs
// data blocks on Resize (allocation) paths.
type Mode int

// Journaling modes.
const (
	// Ordered is the ext3 default: metadata is journaled; data is
	// flushed before commit (the VFS enforces the data flush on
	// fsync).
	Ordered Mode = iota
	// Writeback journals metadata with no data ordering.
	Writeback
	// Journal logs data blocks too — every data allocation adds
	// journal traffic.
	Journal
)

// String names the mode as in mount options.
func (m Mode) String() string {
	switch m {
	case Writeback:
		return "writeback"
	case Journal:
		return "journal"
	default:
		return "ordered"
	}
}

// JournalBlocks is the journal region size: 8192 × 4 KB = 32 MB, the
// mke2fs default for disks of this size.
const JournalBlocks = 8192

// DefaultCommitOps is how many journaled operations accumulate before
// an automatic commit, standing in for ext3's 5-second commit timer
// under virtual time.
const DefaultCommitOps = 64

// FS is the Ext3 model: ext2 layout plus a journal.
type FS struct {
	*ext2sim.FS
	journal     *fs.Journal
	mode        Mode
	commitOps   int
	sinceCommit int

	// atime batching: reads dirty the inode; the journal picks the
	// update up at the next commit. We count pending atime records to
	// size commits realistically without logging every read.
	pendingAtime int
}

// New formats an Ext3 model over totalBlocks blocks in the given
// mode. The journal lives at the start of block group 1's data area.
func New(totalBlocks int64, mode Mode) (*FS, error) {
	inner, err := ext2sim.New(totalBlocks)
	if err != nil {
		return nil, err
	}
	// Journal placement: data area of group 1 (the layout shift that
	// distinguishes ext3's on-disk picture from ext2's).
	const journalStart = ext2sim.GroupBlocks + 4 + ext2sim.InodesPerGroup/32
	inner.ReserveRange(journalStart, JournalBlocks)
	return &FS{
		FS:        inner,
		journal:   fs.NewJournal(journalStart, JournalBlocks),
		mode:      mode,
		commitOps: DefaultCommitOps,
	}, nil
}

// Name implements fs.FileSystem.
func (f *FS) Name() string { return "ext3" }

// journalize appends journal records covering the deferred metadata
// writes in steps and auto-commits when due.
func (f *FS) journalize(steps []fs.IOStep) []fs.IOStep {
	writes := 0
	for _, s := range steps {
		if s.Write && !s.Sync {
			writes++
		}
	}
	if writes == 0 {
		return steps
	}
	// One descriptor block plus the logged metadata blocks.
	out := append(steps, f.journal.Append(1+writes)...)
	f.sinceCommit++
	if f.sinceCommit >= f.commitOps {
		out = append(out, f.commit()...)
	}
	return out
}

func (f *FS) commit() []fs.IOStep {
	f.sinceCommit = 0
	f.pendingAtime = 0
	return f.journal.Commit()
}

// Create implements fs.FileSystem.
func (f *FS) Create(dir fs.Ino, name string, ft fs.FileType, now sim.Time) (fs.Ino, []fs.IOStep, error) {
	ino, steps, err := f.FS.Create(dir, name, ft, now)
	if err != nil {
		return 0, nil, err
	}
	return ino, f.journalize(steps), nil
}

// Remove implements fs.FileSystem.
func (f *FS) Remove(dir fs.Ino, name string, now sim.Time) ([]fs.IOStep, error) {
	steps, err := f.FS.Remove(dir, name, now)
	if err != nil {
		return nil, err
	}
	return f.journalize(steps), nil
}

// Resize implements fs.FileSystem.
func (f *FS) Resize(ino fs.Ino, size int64, now sim.Time) ([]fs.IOStep, error) {
	steps, err := f.FS.Resize(ino, size, now)
	if err != nil {
		return nil, err
	}
	if f.mode == Journal {
		// Data journaling: log the data blocks being added too. We
		// approximate with one record block per 16 data blocks.
		grown := 0
		for _, s := range steps {
			if s.Write && !s.Sync {
				grown++
			}
		}
		steps = append(steps, f.journal.Append(grown/16+1)...)
	}
	return f.journalize(steps), nil
}

// TouchAtime implements fs.FileSystem: the inode is dirtied and a
// journal record becomes due. Individual reads are cheap; every
// atimeBatch reads the accumulated updates cost one record block, and
// commits fall out of the usual schedule — a small, steady stream of
// journal I/O that a read-only benchmark on ext2 never sees.
func (f *FS) TouchAtime(ino fs.Ino, now sim.Time) []fs.IOStep {
	steps := f.FS.TouchAtime(ino, now)
	f.pendingAtime++
	const atimeBatch = 256
	if f.pendingAtime%atimeBatch == 0 {
		steps = append(steps, f.journal.Append(1)...)
		steps = append(steps, f.journal.Commit()...)
	}
	return steps
}

// Fsync implements fs.FileSystem: fsync forces a journal commit. (In
// Ordered mode the VFS flushes the file's dirty data first; that
// ordering lives in the VFS because only it owns the data pages.)
func (f *FS) Fsync(ino fs.Ino) ([]fs.IOStep, error) {
	if _, _, err := f.FS.Getattr(ino); err != nil {
		return nil, err
	}
	steps := f.journal.Append(1) // the inode's record
	steps = append(steps, f.commit()...)
	return steps, nil
}

// JournalStats exposes journal counters.
//
//fslint:ignore deadapi the ext3 conformance tests (package fs_test) observe journal traffic through it
func (f *FS) JournalStats() (appends, commits, wraps int64) { return f.journal.Stats() }

var _ fs.FileSystem = (*FS)(nil)
