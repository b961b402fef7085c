package sim

// eventQueue is the kernel's event queue: a binary min-heap of pooled
// eventItems ordered by earlier. (at, seq) is a strict total order, so the
// heap pops exactly the sequence any correct priority queue would, and
// same-timestamp events pop in scheduling order.
//
// Dead (cancelled) items are not removed here: pop and peek return them
// like any other item, the kernel filters and recycles them, and reap drops
// them all in one pass when they dominate.
type eventQueue struct {
	items []*eventItem
}

// size returns the number of items queued, dead ones included.
func (q *eventQueue) size() int { return len(q.items) }

// peek returns the minimum item without removing it, or nil when empty.
func (q *eventQueue) peek() *eventItem {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

// push inserts an item. The same item is never pushed twice.
func (q *eventQueue) push(item *eventItem) {
	q.items = append(q.items, item)
	q.up(len(q.items) - 1)
}

// pop removes and returns the minimum item by (at, seq), or nil when empty.
func (q *eventQueue) pop() *eventItem {
	n := len(q.items) - 1
	if n < 0 {
		return nil
	}
	item := q.items[0]
	q.items[0] = q.items[n]
	q.items[n] = nil
	q.items = q.items[:n]
	if n > 0 {
		q.down(0)
	}
	return item
}

// reap removes every dead item, handing each to recycle, and returns how
// many it removed. Pop order is keyed by (at, seq) alone, so reaping early
// changes nothing observable but memory.
func (q *eventQueue) reap(recycle func(*eventItem)) int {
	live := q.items[:0]
	for _, item := range q.items {
		if item.dead() {
			recycle(item)
			continue
		}
		live = append(live, item)
	}
	removed := len(q.items) - len(live)
	clear(q.items[len(live):])
	q.items = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	return removed
}

// up moves the item at i toward the root until its parent is earlier.
func (q *eventQueue) up(i int) {
	h := q.items
	item := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !earlier(item, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = item
}

// down moves the item at i toward the leaves until no child is earlier.
func (q *eventQueue) down(i int) {
	h := q.items
	item := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if right := child + 1; right < len(h) && earlier(h[right], h[child]) {
			child = right
		}
		if !earlier(h[child], item) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = item
}
