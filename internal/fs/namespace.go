package fs

import "sort"

// entriesPerBlock is how many directory entries fit one block (4 KB /
// ~32-byte average entry). It determines how many directory data
// blocks a lookup or scan touches.
const entriesPerBlock = 128

// Namespace is the in-memory directory tree shared by all file-system
// models. It tracks, per directory, the entries in insertion order so
// that an entry's position determines which directory data block a
// lookup must read — the metadata-dimension cost model.
type Namespace struct {
	root Ino
	dirs map[Ino]*dirNode
}

type dirNode struct {
	entries map[string]*nsEntry
	order   []string // insertion order, with holes compacted lazily
	holes   int
}

type nsEntry struct {
	ino  Ino
	typ  FileType
	slot int // index into order
}

// NewNamespace returns a namespace containing only the root directory.
func NewNamespace(root Ino) *Namespace {
	ns := &Namespace{root: root, dirs: make(map[Ino]*dirNode)}
	ns.dirs[root] = newDirNode()
	return ns
}

func newDirNode() *dirNode {
	return &dirNode{entries: make(map[string]*nsEntry)}
}

// Root returns the root directory inode.
func (ns *Namespace) Root() Ino { return ns.root }

// Blocks reports how many data blocks dir occupies.
func (ns *Namespace) Blocks(dir Ino) int64 {
	d, ok := ns.dirs[dir]
	if !ok {
		return 0
	}
	n := int64(len(d.entries))
	if n == 0 {
		return 1 // even an empty directory has one block
	}
	return (n + entriesPerBlock - 1) / entriesPerBlock
}

// Lookup resolves name in dir. The returned blockIdx is the index of
// the directory data block containing the entry (for I/O charging).
func (ns *Namespace) Lookup(dir Ino, name string) (ino Ino, typ FileType, blockIdx int64, err error) {
	d, ok := ns.dirs[dir]
	if !ok {
		return 0, 0, 0, ErrNotDir
	}
	e, ok := d.entries[name]
	if !ok {
		return 0, 0, 0, ErrNotExist
	}
	return e.ino, e.typ, int64(e.slot / entriesPerBlock), nil
}

// Insert adds an entry to dir. If the entry is a directory, a new
// empty directory node is created for it.
func (ns *Namespace) Insert(dir Ino, name string, ino Ino, typ FileType) (blockIdx int64, err error) {
	if err := CheckName(name); err != nil {
		return 0, err
	}
	d, ok := ns.dirs[dir]
	if !ok {
		return 0, ErrNotDir
	}
	if _, exists := d.entries[name]; exists {
		return 0, ErrExist
	}
	slot := len(d.order)
	d.order = append(d.order, name)
	d.entries[name] = &nsEntry{ino: ino, typ: typ, slot: slot}
	if typ == Directory {
		ns.dirs[ino] = newDirNode()
	}
	return int64(slot / entriesPerBlock), nil
}

// Remove unlinks name from dir. Removing a non-empty directory fails
// with ErrNotEmpty.
func (ns *Namespace) Remove(dir Ino, name string) (ino Ino, typ FileType, blockIdx int64, err error) {
	d, ok := ns.dirs[dir]
	if !ok {
		return 0, 0, 0, ErrNotDir
	}
	e, ok := d.entries[name]
	if !ok {
		return 0, 0, 0, ErrNotExist
	}
	if e.typ == Directory {
		if child := ns.dirs[e.ino]; child != nil && len(child.entries) > 0 {
			return 0, 0, 0, ErrNotEmpty
		}
		delete(ns.dirs, e.ino)
	}
	blockIdx = int64(e.slot / entriesPerBlock)
	d.order[e.slot] = ""
	d.holes++
	delete(d.entries, name)
	// Compact the order slice when holes dominate, renumbering slots;
	// this models directory compaction and bounds memory.
	if d.holes > len(d.order)/2 && d.holes > 64 {
		compacted := d.order[:0]
		for _, n := range d.order {
			if n == "" {
				continue
			}
			d.entries[n].slot = len(compacted)
			compacted = append(compacted, n)
		}
		d.order = compacted
		d.holes = 0
	}
	return e.ino, e.typ, blockIdx, nil
}

// List returns dir's entries sorted by name (ReadDir order).
func (ns *Namespace) List(dir Ino) ([]DirEntry, error) {
	d, ok := ns.dirs[dir]
	if !ok {
		return nil, ErrNotDir
	}
	out := make([]DirEntry, 0, len(d.entries))
	for name, e := range d.entries {
		out = append(out, DirEntry{Name: name, Ino: e.ino, Type: e.typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
