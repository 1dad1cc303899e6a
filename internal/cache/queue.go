package cache

// qnode is one page on a queue. Policies keep their qnodes in a
// pageTable and link them in place, so a queue operation allocates
// nothing and never boxes a PageID.
type qnode struct {
	id         PageID
	prev, next *qnode
	tag        uint8 // owner-defined: which queue, or a reference bit
}

// queue is an intrusive doubly linked list of qnodes. By convention
// pushFront adds the newest entry, so the back is the oldest.
type queue struct {
	head, tail *qnode
	n          int
}

func (q *queue) pushFront(x *qnode) {
	x.prev, x.next = nil, q.head
	if q.head != nil {
		q.head.prev = x
	} else {
		q.tail = x
	}
	q.head = x
	q.n++
}

func (q *queue) pushBack(x *qnode) {
	x.prev, x.next = q.tail, nil
	if q.tail != nil {
		q.tail.next = x
	} else {
		q.head = x
	}
	q.tail = x
	q.n++
}

func (q *queue) remove(x *qnode) {
	if x.prev != nil {
		x.prev.next = x.next
	} else {
		q.head = x.next
	}
	if x.next != nil {
		x.next.prev = x.prev
	} else {
		q.tail = x.prev
	}
	x.prev, x.next = nil, nil
	q.n--
}

func (q *queue) moveToFront(x *qnode) {
	if q.head != x {
		q.remove(x)
		q.pushFront(x)
	}
}
