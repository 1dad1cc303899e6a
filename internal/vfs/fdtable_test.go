package vfs

import "testing"

// TestFDTableCapAndOrder: the table keeps open order, a capped table
// closes its oldest handle when one more is added, and re-adding a
// path makes it the newest.
func TestFDTableCapAndOrder(t *testing.T) {
	m := newMount(t, 64, 0)
	fds := NewFDTable(2)
	for _, p := range []string{"/a", "/b", "/c"} {
		fds.Add(p, mkFile(t, m, p, 0))
	}
	if _, ok := fds.Get("/a"); ok || fds.Len() != 2 {
		t.Fatalf("capped table holds %d handles, /a present %v; want 2, /a closed", fds.Len(), ok)
	}
	if p, _ := fds.Oldest(); p != "/b" {
		t.Errorf("oldest = %q, want /b", p)
	}
	fd, _ := fds.Get("/b")
	fds.Add("/b", fd)
	if p, _ := fds.Oldest(); p != "/c" {
		t.Errorf("after re-adding /b, oldest = %q, want /c", p)
	}
	fds.Drop("/c")
	fds.Close("/b")
	if p, fd := fds.Oldest(); fds.Len() != 0 || fd != nil {
		t.Errorf("after drop and close: %d handles, oldest %q", fds.Len(), p)
	}
}
