package cache

// LRU evicts the least recently used page. This is the default policy
// and the closest simple analogue of the Linux page cache the paper's
// testbed ran on.
type LRU struct {
	q     queue // front = MRU
	nodes pageTable[qnode]
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU {
	return &LRU{nodes: newPageTable[qnode]()}
}

// Name implements Policy.
func (l *LRU) Name() string { return "lru" }

// SetCapacity implements Policy; LRU needs no capacity knowledge.
func (l *LRU) SetCapacity(int) {}

// OnAccess implements Policy.
func (l *LRU) OnAccess(id PageID) {
	if e := l.nodes.get(id); e != nil {
		l.q.moveToFront(e)
	}
}

// OnInsert implements Policy.
func (l *LRU) OnInsert(id PageID) {
	e, added := l.nodes.put(id)
	if !added {
		l.q.moveToFront(e)
		return
	}
	e.id = id
	l.q.pushFront(e)
}

// OnRemove implements Policy.
func (l *LRU) OnRemove(id PageID) { dequeue(&l.q, &l.nodes, id) }

// OnMiss implements Policy; LRU learns nothing from misses.
func (l *LRU) OnMiss(PageID) {}

// Victim implements Policy.
func (l *LRU) Victim() (PageID, bool) { return popBack(&l.q, &l.nodes) }

// FIFO evicts in insertion order, ignoring recency. It is the
// baseline that makes LRU's recency benefit measurable.
type FIFO struct {
	q     queue // front = newest
	nodes pageTable[qnode]
}

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO {
	return &FIFO{nodes: newPageTable[qnode]()}
}

// Name implements Policy.
func (f *FIFO) Name() string { return "fifo" }

// SetCapacity implements Policy.
func (f *FIFO) SetCapacity(int) {}

// OnAccess implements Policy; FIFO ignores recency.
func (f *FIFO) OnAccess(PageID) {}

// OnInsert implements Policy.
func (f *FIFO) OnInsert(id PageID) {
	if e, added := f.nodes.put(id); added {
		e.id = id
		f.q.pushFront(e)
	}
}

// OnRemove implements Policy.
func (f *FIFO) OnRemove(id PageID) { dequeue(&f.q, &f.nodes, id) }

// OnMiss implements Policy.
func (f *FIFO) OnMiss(PageID) {}

// Victim implements Policy.
func (f *FIFO) Victim() (PageID, bool) { return popBack(&f.q, &f.nodes) }

// dequeue forgets id, unlinking it from q, if nodes holds it.
func dequeue(q *queue, nodes *pageTable[qnode], id PageID) {
	if e := nodes.get(id); e != nil {
		q.remove(e)
		nodes.del(id)
	}
}

// popBack forgets the oldest entry of q and returns its page.
func popBack(q *queue, nodes *pageTable[qnode]) (PageID, bool) {
	e := q.tail
	if e == nil {
		return PageID{}, false
	}
	id := e.id
	q.remove(e)
	nodes.del(id)
	return id, true
}
