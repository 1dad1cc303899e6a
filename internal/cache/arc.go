package cache

// ARC implements the Adaptive Replacement Cache (Megiddo & Modha,
// FAST '03): two resident lists, T1 (recency) and T2 (frequency),
// plus two ghost lists, B1 and B2, whose hits steer the adaptive
// target p that divides the cache between recency and frequency.
type ARC struct {
	capacity int
	p        int // target size of T1

	t1, t2 queue // resident (front = MRU)
	b1, b2 queue // ghosts (front = MRU)

	nodes pageTable[qnode] // tag says which list: lT1, lT2, lB1, lB2
}

const (
	lT1 = iota
	lT2
	lB1
	lB2
)

// NewARC returns an empty ARC policy.
func NewARC() *ARC {
	return &ARC{nodes: newPageTable[qnode]()}
}

// Name implements Policy.
func (a *ARC) Name() string { return "arc" }

// SetCapacity implements Policy.
func (a *ARC) SetCapacity(pages int) {
	a.capacity = pages
	if a.p > pages {
		a.p = pages
	}
}

// OnAccess implements Policy: any hit promotes to T2 MRU.
func (a *ARC) OnAccess(id PageID) {
	e := a.nodes.get(id)
	if e == nil {
		return
	}
	switch e.tag {
	case lT1:
		a.t1.remove(e)
		e.tag = lT2
		a.t2.pushFront(e)
	case lT2:
		a.t2.moveToFront(e)
	}
}

// OnMiss implements Policy: ghost hits adapt p.
func (a *ARC) OnMiss(id PageID) {
	e := a.nodes.get(id)
	if e == nil {
		return
	}
	switch e.tag {
	case lB1:
		delta := 1
		if a.b1.n > 0 && a.b2.n > a.b1.n {
			delta = a.b2.n / a.b1.n
		}
		a.p = min(a.p+delta, a.capacity)
		// Leave the ghost in place; OnInsert consumes it.
	case lB2:
		delta := 1
		if a.b2.n > 0 && a.b1.n > a.b2.n {
			delta = a.b1.n / a.b2.n
		}
		a.p = max(a.p-delta, 0)
	}
}

// OnInsert implements Policy.
func (a *ARC) OnInsert(id PageID) {
	e, added := a.nodes.put(id)
	if !added {
		if e.tag == lB1 || e.tag == lB2 {
			a.listOf(e.tag).remove(e)
			e.tag = lT2
			a.t2.pushFront(e)
		}
		return // otherwise already resident
	}
	e.id, e.tag = id, lT1
	a.t1.pushFront(e)
	a.trimGhosts()
}

// OnRemove implements Policy.
func (a *ARC) OnRemove(id PageID) {
	if e := a.nodes.get(id); e != nil {
		a.listOf(e.tag).remove(e)
		a.nodes.del(id)
	}
}

func (a *ARC) listOf(which uint8) *queue {
	switch which {
	case lT1:
		return &a.t1
	case lT2:
		return &a.t2
	case lB1:
		return &a.b1
	default:
		return &a.b2
	}
}

// Victim implements Policy: evict from T1 if it exceeds the target p,
// else from T2; the evicted page becomes a ghost.
func (a *ARC) Victim() (PageID, bool) {
	fromT1 := a.t1.n > 0 && (a.t1.n > a.p || a.t2.n == 0)
	var src, ghost *queue
	var ghostList uint8
	if fromT1 {
		src, ghost, ghostList = &a.t1, &a.b1, lB1
	} else if a.t2.n > 0 {
		src, ghost, ghostList = &a.t2, &a.b2, lB2
	} else {
		return PageID{}, false
	}
	e := src.tail
	id := e.id
	src.remove(e)
	e.tag = ghostList
	ghost.pushFront(e)
	a.trimGhosts()
	return id, true
}

// trimGhosts bounds ghost memory: |T1|+|B1| <= c and total directory
// size <= 2c, per the ARC paper.
func (a *ARC) trimGhosts() {
	for a.t1.n+a.b1.n > a.capacity && a.b1.n > 0 {
		popBack(&a.b1, &a.nodes)
	}
	for a.t1.n+a.t2.n+a.b1.n+a.b2.n > 2*a.capacity && a.b2.n > 0 {
		popBack(&a.b2, &a.nodes)
	}
}
