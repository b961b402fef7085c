package sim

import "container/heap"

// Queue is the kernel's scheduling backend: a priority queue over pooled
// eventItems keyed by (at, seq). The total order is strict — seq breaks
// every timestamp tie — so any correct implementation pops events in
// exactly the same sequence, which is what lets the backend be swapped
// under the golden per-seed trace hashes.
//
// It is a sealed interface: the methods name the unexported eventItem, so
// only this package can implement it. That is deliberate — an external
// backend could not be held to the determinism contract (no map iteration,
// no wallclock, pop order keyed strictly by (at, seq)).
//
// The kernel owns all cancellation bookkeeping: dead items (cancelled one
// by one or through their scope) stay in the queue and surface through
// pop/peek like any other item (the kernel filters and recycles them), so
// an implementation never inspects an item's state except in reap, where
// it removes every dead item in one pass.
//
// Construct instances with NewCalendarQueue/NewHeapQueue (or NewQueue by
// kind) and hand them straight to NewWithQueue: a queue is part of one
// kernel, never shared, never free-standing. The kernel-ownership lint
// flags raw queue construction anywhere else.
type Queue interface {
	// push inserts an item. The same item is never pushed twice.
	push(*eventItem)
	// pop removes and returns the minimum item by (at, seq), or nil when
	// empty.
	pop() *eventItem
	// peek returns the minimum item without removing it, or nil when
	// empty. Repeated peeks with no intervening push/pop are O(1).
	peek() *eventItem
	// size returns the number of items queued, dead ones included.
	size() int
	// reap removes every dead item, handing each to recycle, and
	// returns how many it removed. Relative order of survivors is
	// unchanged (pop order is keyed by (at, seq) regardless).
	reap(recycle func(*eventItem)) int
	// kind names the implementation, for diagnostics and bench records.
	kind() string
}

// Queue kind names accepted by NewQueue and Params-level selectors.
const (
	QueueCalendar = "calendar"
	QueueHeap     = "heap"
)

// QueueKinds returns the selectable backend names, default first.
func QueueKinds() []string { return []string{QueueCalendar, QueueHeap} }

// KnownQueue reports whether kind names a queue backend. The empty string
// selects the default (calendar) and is known.
func KnownQueue(kind string) bool {
	return kind == "" || kind == QueueCalendar || kind == QueueHeap
}

// NewQueue returns a fresh backend by kind ("" and "calendar" select the
// calendar queue, "heap" the binary heap) or nil for an unknown kind —
// validate with KnownQueue first. The result must flow directly into
// NewWithQueue (enforced by the kernel-ownership lint).
func NewQueue(kind string) Queue {
	switch kind {
	case "", QueueCalendar:
		return NewCalendarQueue()
	case QueueHeap:
		return NewHeapQueue()
	}
	return nil
}

// heapQueue is the container/heap backend: O(log n) push/pop on a binary
// heap ordered by (at, seq). It was the kernel's original queue and is
// retained as the reference implementation the calendar queue is
// equivalence-tested against, and as a fallback selectable per run.
type heapQueue struct {
	h eventHeap
}

// NewHeapQueue returns the binary-heap backend.
func NewHeapQueue() Queue { return &heapQueue{} }

func (q *heapQueue) kind() string { return QueueHeap }

func (q *heapQueue) push(item *eventItem) { heap.Push(&q.h, item) }

func (q *heapQueue) pop() *eventItem {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*eventItem)
}

func (q *heapQueue) peek() *eventItem {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) size() int { return len(q.h) }

// reap rebuilds the heap from the surviving items; pop order is fully
// determined by the (at, seq) keys, so reaping early changes nothing
// observable but memory.
func (q *heapQueue) reap(recycle func(*eventItem)) int {
	live := q.h[:0]
	for _, item := range q.h {
		if item.dead() {
			recycle(item)
			continue
		}
		live = append(live, item)
	}
	removed := len(q.h) - len(live)
	for i := len(live); i < len(q.h); i++ {
		q.h[i] = nil
	}
	q.h = live
	heap.Init(&q.h)
	return removed
}

type eventHeap []*eventItem

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool { return earlier(h[i], h[j]) }

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*eventItem)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return item
}
