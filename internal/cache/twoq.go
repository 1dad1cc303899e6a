package cache

// TwoQ implements the 2Q policy (Johnson & Shasha, VLDB '94): new
// pages enter a small FIFO probation queue (A1in); pages evicted from
// probation are remembered in a ghost queue (A1out); a miss that hits
// the ghost queue indicates reuse and the page is admitted to the main
// LRU queue (Am). Scan-resistant where plain LRU is not.
type TwoQ struct {
	capacity int
	kin      int // max A1in size (resident)
	kout     int // max A1out size (ghost entries)

	a1in  queue // FIFO of resident probation pages
	a1out queue // FIFO of ghost ids
	am    queue // LRU of resident hot pages (front = MRU)

	nodes pageTable[qnode] // tag says which queue: qA1in, qA1out, qAm
}

const (
	qA1in = iota
	qA1out
	qAm
)

// NewTwoQ returns an empty 2Q policy. Queue sizing uses the paper's
// recommended Kin = 25% and Kout = 50% of capacity.
func NewTwoQ() *TwoQ {
	return &TwoQ{nodes: newPageTable[qnode]()}
}

// Name implements Policy.
func (q *TwoQ) Name() string { return "2q" }

// SetCapacity implements Policy.
func (q *TwoQ) SetCapacity(pages int) {
	q.capacity = pages
	q.kin = pages / 4
	if q.kin < 1 {
		q.kin = 1
	}
	q.kout = pages / 2
	if q.kout < 1 {
		q.kout = 1
	}
}

// OnAccess implements Policy.
func (q *TwoQ) OnAccess(id PageID) {
	e := q.nodes.get(id)
	if e == nil {
		return
	}
	switch e.tag {
	case qA1in:
		// 2Q leaves probation pages in place on hit; promotion
		// happens only via the ghost queue.
	case qAm:
		q.am.moveToFront(e)
	}
}

// OnMiss implements Policy: a ghost hit marks the page for admission
// directly into Am on the upcoming insert.
func (q *TwoQ) OnMiss(id PageID) {
	// Nothing to do here: the ghost check happens in OnInsert, where
	// the entry (if any) still records qA1out membership.
}

// OnInsert implements Policy.
func (q *TwoQ) OnInsert(id PageID) {
	e, added := q.nodes.put(id)
	if !added {
		if e.tag == qA1out {
			// Reuse detected: admit to the hot queue.
			q.a1out.remove(e)
			e.tag = qAm
			q.am.pushFront(e)
		}
		return // otherwise already resident
	}
	e.id, e.tag = id, qA1in
	q.a1in.pushFront(e)
}

// OnRemove implements Policy.
func (q *TwoQ) OnRemove(id PageID) {
	if e := q.nodes.get(id); e != nil {
		q.queueOf(e.tag).remove(e)
		q.nodes.del(id)
	}
}

func (q *TwoQ) queueOf(tag uint8) *queue {
	switch tag {
	case qA1in:
		return &q.a1in
	case qA1out:
		return &q.a1out
	default:
		return &q.am
	}
}

// Victim implements Policy.
func (q *TwoQ) Victim() (PageID, bool) {
	if q.a1in.n > q.kin || q.am.n == 0 {
		if e := q.a1in.tail; e != nil {
			id := e.id
			q.a1in.remove(e)
			// Remember the page as a ghost.
			e.tag = qA1out
			q.a1out.pushFront(e)
			q.trimGhosts()
			return id, true
		}
	}
	return popBack(&q.am, &q.nodes)
}

func (q *TwoQ) trimGhosts() {
	for q.a1out.n > q.kout {
		popBack(&q.a1out, &q.nodes)
	}
}

// residentLen reports resident pages tracked (for tests).
func (q *TwoQ) residentLen() int { return q.a1in.n + q.am.n }
