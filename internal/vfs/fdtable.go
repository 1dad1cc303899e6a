package vfs

// FDTable is one process's open descriptors, keyed by path and kept in
// open order, so picking the oldest handle and evicting at the cap are
// deterministic where map order would not be. The zero value is an
// empty table with no cap.
type FDTable struct {
	max   int
	fds   map[string]*FD
	order []string
}

// NewFDTable returns an empty table holding at most max handles (<= 0
// means no cap). Adding a handle to a full table closes the oldest,
// the bound a real process's rlimit imposes.
func NewFDTable(max int) FDTable { return FDTable{max: max} }

// Len reports the number of open handles.
func (t *FDTable) Len() int { return len(t.fds) }

// Get returns the handle for path, if one is open.
func (t *FDTable) Get(path string) (*FD, bool) {
	fd, ok := t.fds[path]
	return fd, ok
}

// Add records fd as the newest handle for path, replacing any handle
// the table held for it, and closes the oldest handle if the table is
// over its cap.
func (t *FDTable) Add(path string, fd *FD) {
	if t.fds == nil {
		t.fds = make(map[string]*FD)
	}
	t.Drop(path)
	t.fds[path] = fd
	t.order = append(t.order, path)
	if t.max > 0 && len(t.order) > t.max {
		t.Close(t.order[0])
	}
}

// Drop forgets the handle for path without closing it.
func (t *FDTable) Drop(path string) {
	if _, ok := t.fds[path]; !ok {
		return
	}
	delete(t.fds, path)
	for i, p := range t.order {
		if p == path {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// Close closes and forgets the handle for path, if one is open.
func (t *FDTable) Close(path string) {
	if fd, ok := t.fds[path]; ok {
		fd.mount.Close(fd)
		t.Drop(path)
	}
}

// Oldest returns the least recently opened handle, or nil if none.
func (t *FDTable) Oldest() (string, *FD) {
	if len(t.order) == 0 {
		return "", nil
	}
	return t.order[0], t.fds[t.order[0]]
}
