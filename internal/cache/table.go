package cache

import (
	"cmp"
	"math/bits"
	"slices"
)

// Page-table geometry. A leaf holds leafSlots consecutive pages of one
// file; a directory node fans out dirFanout ways.
const (
	leafBits  = 4
	leafSlots = 1 << leafBits
	dirBits   = 5
	dirFanout = 1 << dirBits
)

// pageTable maps resident pages to a V stored inline, in the spirit of
// Linux's per-inode address_space: one small radix tree per file, its
// leaves holding leafSlots consecutive pages with an occupancy mask.
// Values never move while present, so callers may keep pointers to
// them (intrusive list links) until they delete the page.
//
// Lookups first try the last leaf touched, which catches the
// sequential page runs that dominate file I/O. Emptied leaves,
// directory nodes and file tables go on free lists and are reused, so
// steady-state churn allocates nothing. Walks visit pages in (file,
// index) order by construction: files are kept sorted, and a radix
// tree is ordered.
//
// Page indices must be non-negative.
type pageTable[V any] struct {
	files map[uint64]*fileTable[V]
	order []*fileTable[V] // the files, by ascending file number
	memo  *leaf[V]        // last leaf found or created
	n     int             // present pages

	freeLeaves []*leaf[V]
	freeDirs   []*dirNode[V]
	freeFiles  []*fileTable[V]
}

// fileTable is one file's radix tree. A file whose pages all fall in
// leaf 0 (most files) has height 0 and no directory node.
type fileTable[V any] struct {
	file   uint64
	n      int // present pages
	height int // directory levels: the tree covers leaf keys < dirFanout^height
	root   *dirNode[V]
	leaf0  *leaf[V] // the only leaf, at height 0
}

// dirNode is a directory node: the lowest level points at leaves, the
// levels above it at further directory nodes.
type dirNode[V any] struct {
	kids   [dirFanout]*dirNode[V]
	leaves [dirFanout]*leaf[V]
}

// leaf holds the pages whose indices share key = index>>leafBits.
type leaf[V any] struct {
	file uint64
	key  uint64
	ft   *fileTable[V]
	used uint16 // occupancy mask, one bit per slot
	vals [leafSlots]V
}

func newPageTable[V any]() pageTable[V] {
	return pageTable[V]{files: make(map[uint64]*fileTable[V])}
}

// len reports the number of present pages.
func (t *pageTable[V]) len() int { return t.n }

// get returns the value of a present page, or nil.
func (t *pageTable[V]) get(id PageID) *V {
	l := t.find(id)
	if l == nil {
		return nil
	}
	s := uint(id.Index) & (leafSlots - 1)
	if l.used&(1<<s) == 0 {
		return nil
	}
	return &l.vals[s]
}

// put returns the value slot of id, making the page present with a
// zero value if it was not (added reports which).
func (t *pageTable[V]) put(id PageID) (v *V, added bool) {
	if id.Index < 0 {
		panic("cache: negative page index")
	}
	l := t.find(id)
	if l == nil {
		l = t.newLeaf(id)
	}
	s := uint(id.Index) & (leafSlots - 1)
	if l.used&(1<<s) != 0 {
		return &l.vals[s], false
	}
	l.used |= 1 << s
	l.ft.n++
	t.n++
	return &l.vals[s], true
}

// del removes id if present, recycling its leaf and file table when
// they empty.
func (t *pageTable[V]) del(id PageID) {
	l := t.find(id)
	if l == nil {
		return
	}
	s := uint(id.Index) & (leafSlots - 1)
	if l.used&(1<<s) == 0 {
		return
	}
	var zero V
	l.vals[s] = zero
	l.used &^= 1 << s
	t.n--
	f := l.ft
	f.n--
	if l.used != 0 {
		return
	}
	*t.slot(f, l.key, false) = nil
	t.recycleLeaf(l)
	if f.n == 0 {
		t.removeFile(f.file, nil)
	}
}

// removeFile removes every page of one file, calling fn (if non-nil)
// on each in index order before it goes, and returns how many there
// were.
func (t *pageTable[V]) removeFile(file uint64, fn func(PageID, *V)) int {
	f := t.files[file]
	if f == nil {
		return 0
	}
	n := f.n
	i, _ := slices.BinarySearchFunc(t.order, file, compareFile[V])
	t.order = slices.Delete(t.order, i, i+1)
	t.recycleFile(f, fn)
	return n
}

// removeAll removes every page, calling fn on each in (file, index)
// order before it goes.
func (t *pageTable[V]) removeAll(fn func(PageID, *V)) {
	for _, f := range t.order {
		t.recycleFile(f, fn)
	}
	clear(t.order)
	t.order = t.order[:0]
}

// find returns the leaf that would hold id, or nil.
func (t *pageTable[V]) find(id PageID) *leaf[V] {
	key := uint64(id.Index) >> leafBits
	if l := t.memo; l != nil && l.key == key && l.file == id.File {
		return l
	}
	f := t.files[id.File]
	if f == nil || key>>(dirBits*uint(f.height)) != 0 {
		return nil
	}
	p := t.slot(f, key, false)
	if p == nil || *p == nil {
		return nil
	}
	t.memo = *p
	return *p
}

// slot returns where f keeps the leaf pointer for key, which f's
// height must cover. Missing directory nodes on the way are created
// when create is set; otherwise a missing node yields nil.
func (t *pageTable[V]) slot(f *fileTable[V], key uint64, create bool) **leaf[V] {
	if f.height == 0 {
		return &f.leaf0
	}
	d := f.root
	for h := f.height - 1; h > 0; h-- {
		next := &d.kids[(key>>(dirBits*uint(h)))&(dirFanout-1)]
		if *next == nil {
			if !create {
				return nil
			}
			*next = reuse(&t.freeDirs)
		}
		d = *next
	}
	return &d.leaves[key&(dirFanout-1)]
}

// newLeaf creates the empty leaf for id, and its file table and
// directory path as needed.
func (t *pageTable[V]) newLeaf(id PageID) *leaf[V] {
	f := t.files[id.File]
	if f == nil {
		f = t.newFile(id.File)
	}
	key := uint64(id.Index) >> leafBits
	for key>>(dirBits*uint(f.height)) != 0 {
		root := reuse(&t.freeDirs)
		if f.height == 0 {
			root.leaves[0], f.leaf0 = f.leaf0, nil
		} else {
			root.kids[0] = f.root
		}
		f.root = root
		f.height++
	}
	l := reuse(&t.freeLeaves)
	l.file, l.key, l.ft = id.File, key, f
	*t.slot(f, key, true) = l
	t.memo = l
	return l
}

func (t *pageTable[V]) newFile(file uint64) *fileTable[V] {
	f := reuse(&t.freeFiles)
	f.file = file
	t.files[file] = f
	i, _ := slices.BinarySearchFunc(t.order, file, compareFile[V])
	t.order = slices.Insert(t.order, i, f)
	return f
}

func compareFile[V any](f *fileTable[V], file uint64) int { return cmp.Compare(f.file, file) }

// reuse pops a recycled node off free, or allocates a new one.
func reuse[T any](free *[]*T) *T {
	if n := len(*free); n > 0 {
		x := (*free)[n-1]
		*free = (*free)[:n-1]
		return x
	}
	return new(T)
}

// recycleLeaf puts a detached leaf, all of whose values are already
// zero, on the free list.
func (t *pageTable[V]) recycleLeaf(l *leaf[V]) {
	if t.memo == l {
		t.memo = nil
	}
	l.used, l.ft = 0, nil
	t.freeLeaves = append(t.freeLeaves, l)
}

// recycleFile recycles f's tree and f itself, calling fn (if non-nil)
// on each present page in index order first. Removing f from order is
// left to the caller.
func (t *pageTable[V]) recycleFile(f *fileTable[V], fn func(PageID, *V)) {
	delete(t.files, f.file)
	t.n -= f.n
	if f.height == 0 {
		if f.leaf0 != nil {
			t.dropLeaf(f.leaf0, fn)
		}
	} else {
		t.dropDir(f.root, fn)
	}
	*f = fileTable[V]{}
	t.freeFiles = append(t.freeFiles, f)
}

// dropDir recycles the subtree under d, visiting leaves in key order.
func (t *pageTable[V]) dropDir(d *dirNode[V], fn func(PageID, *V)) {
	for i := range dirFanout {
		if k := d.kids[i]; k != nil {
			t.dropDir(k, fn)
			d.kids[i] = nil
		}
		if l := d.leaves[i]; l != nil {
			t.dropLeaf(l, fn)
			d.leaves[i] = nil
		}
	}
	t.freeDirs = append(t.freeDirs, d)
}

// dropLeaf recycles a leaf that has been or is being detached, calling
// fn (if non-nil) on each present page in index order first.
func (t *pageTable[V]) dropLeaf(l *leaf[V], fn func(PageID, *V)) {
	for m := l.used; m != 0; m &= m - 1 {
		s := bits.TrailingZeros16(m)
		if fn != nil {
			fn(PageID{File: l.file, Index: int64(l.key<<leafBits | uint64(s))}, &l.vals[s])
		}
		var zero V
		l.vals[s] = zero
	}
	t.recycleLeaf(l)
}
