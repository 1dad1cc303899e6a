package sim

// FreeList recycles objects that a simulation allocates per event —
// queued requests, completion waiters, deferred arrivals — so that the
// steady state allocates none. It is not locked: like everything under
// the event kernel, its users are serialized by the one-baton
// discipline (DESIGN.md §4.2). The zero value is empty and ready.
type FreeList[T any] struct{ free []*T }

// Get returns a recycled object, or a new one when none is free. Either
// way it is zero.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	return new(T)
}

// Put zeroes x, dropping what it references, and frees it for reuse.
// The caller must hold no other pointer to x that it will use again.
func (l *FreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	l.free = append(l.free, x)
}
