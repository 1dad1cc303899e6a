package cache

// Clock approximates LRU with a reference bit and a sweeping hand —
// the classic CLOCK algorithm used where true LRU bookkeeping on every
// hit is too expensive.
type Clock struct {
	ring  queue            // hand sweeps from the back towards the front
	nodes pageTable[qnode] // tag is the reference bit
}

// NewClock returns an empty CLOCK policy.
func NewClock() *Clock {
	return &Clock{nodes: newPageTable[qnode]()}
}

// Name implements Policy.
func (c *Clock) Name() string { return "clock" }

// SetCapacity implements Policy.
func (c *Clock) SetCapacity(int) {}

// OnAccess implements Policy: set the reference bit, move nothing.
func (c *Clock) OnAccess(id PageID) {
	if e := c.nodes.get(id); e != nil {
		e.tag = 1
	}
}

// OnInsert implements Policy.
func (c *Clock) OnInsert(id PageID) {
	e, added := c.nodes.put(id)
	if !added {
		e.tag = 1
		return
	}
	e.id = id
	c.ring.pushFront(e)
}

// OnRemove implements Policy.
func (c *Clock) OnRemove(id PageID) { dequeue(&c.ring, &c.nodes, id) }

// OnMiss implements Policy.
func (c *Clock) OnMiss(PageID) {}

// Victim implements Policy: sweep the hand, clearing reference bits,
// until an unreferenced page is found.
func (c *Clock) Victim() (PageID, bool) {
	for e := c.ring.tail; e != nil && e.tag != 0; e = c.ring.tail {
		// Second chance: clear the bit and rotate to the front.
		e.tag = 0
		c.ring.moveToFront(e)
	}
	return popBack(&c.ring, &c.nodes)
}
