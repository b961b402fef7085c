package sim

import "time"

// calendarQueue is a calendar-queue scheduling backend (after R. Brown,
// "Calendar queues: a fast O(1) priority queue implementation", CACM 1988),
// adapted to the kernel's determinism contract:
//
//   - Events hash into a power-of-two ring of time buckets of equal width;
//     bucket i of a lap covers virtual time [i*width, (i+1)*width) modulo
//     the ring. Each bucket keeps its items sorted ascending by (at, seq),
//     so the head of a bucket is its minimum and same-timestamp events pop
//     in scheduling order — the FIFO tie-break the traces are pinned to.
//   - A dequeue cursor walks the ring window by window; the first due
//     bucket head is the global minimum, because every event due in the
//     cursor's window hashes to the cursor's bucket. If a whole lap finds
//     nothing due (sparse far-future events), one direct scan of the
//     bucket heads finds the minimum and the cursor jumps to its window.
//   - The ring resizes when occupancy drifts: past 2 items/bucket it
//     doubles, under 1/4 it shrinks (checked at push, so steady-state pops
//     stay allocation-free). The new width comes from an EWMA of the gaps
//     between consecutively popped events — the event-density estimate the
//     original algorithm samples for — and resizing only re-hashes items,
//     so pop order is untouched.
//   - Dead (cancelled) items are not removed here: the kernel filters them
//     at pop and triggers reap when they dominate, exactly as with the heap.
//
// Everything is integer arithmetic over slices — no map iteration, no
// wallclock — so two runs with the same seed walk identical bucket states.
type calendarQueue struct {
	buckets []itemRun
	mask    uint64 // len(buckets)-1; len is a power of two
	width   int64  // bucket width, virtual nanoseconds
	n       int    // queued items, cancelled included

	// Dequeue cursor: bucket cur is being drained for the window starting
	// at top. Invariant: no queued item has at < top (push rewinds the
	// cursor when it would violate this).
	cur int
	top int64

	// min caches the queue head between mutations so repeated peeks (the
	// RunUntil deadline check) cost O(1). minBucket is min's home bucket.
	// nil means unknown, not empty.
	min       *eventItem
	minBucket int

	// gapAvg is the EWMA (7/8 old, 1/8 new) of gaps between consecutively
	// popped events; lastPop is the previous pop's timestamp. Together
	// they estimate event density for resize's width choice.
	gapAvg  int64
	lastPop int64
}

const (
	// cqMinBuckets and cqMaxBuckets bound the ring; the minimum keeps tiny
	// queues cheap to scan, the maximum caps the direct-search fallback.
	cqMinBuckets = 16
	cqMaxBuckets = 1 << 18
	// cqInitWidth is the starting bucket width (1ms) before any density
	// estimate exists; resize replaces it once gaps have been observed.
	cqInitWidth = int64(time.Millisecond)
	// cqMaxWidth caps the width so cursor-lap arithmetic stays far from
	// int64 overflow even against the "effectively never" sentinel events.
	cqMaxWidth = int64(1) << 40
	// cqBucketSeedCap is the per-bucket slice capacity preallocated at
	// construction and resize, so warm steady-state pushes never allocate.
	cqBucketSeedCap = 4
	// cqFarFuture excludes "effectively never" sentinels (1<<62-1 draws)
	// from width estimation; they would stretch the spread to uselessness.
	cqFarFuture = int64(1) << 61
)

// itemRun is a sorted run of items: one calendar bucket, or one Lane.
// items[head:] are queued, sorted ascending by (at, seq); items[:head] are
// popped slots awaiting compaction.
type itemRun struct {
	items []*eventItem
	head  int
}

// len returns the number of queued items, dead ones included.
func (b *itemRun) len() int { return len(b.items) - b.head }

// front returns the run's minimum item, or nil when it is empty.
func (b *itemRun) front() *eventItem {
	if b.head == len(b.items) {
		return nil
	}
	return b.items[b.head]
}

// NewCalendarQueue returns the calendar-queue backend, the kernel default.
func NewCalendarQueue() Queue {
	q := &calendarQueue{width: cqInitWidth}
	q.initBuckets(cqMinBuckets)
	return q
}

func (q *calendarQueue) kind() string { return QueueCalendar }

func (q *calendarQueue) size() int { return q.n }

func (q *calendarQueue) initBuckets(count int) {
	q.buckets = make([]itemRun, count)
	q.mask = uint64(count - 1)
	for i := range q.buckets {
		q.buckets[i].items = make([]*eventItem, 0, cqBucketSeedCap)
	}
}

// bucketFor hashes a timestamp to its ring slot.
func (q *calendarQueue) bucketFor(at time.Duration) int {
	return int(uint64(int64(at)/q.width) & q.mask)
}

// windowStart returns the start of the width-aligned window containing at.
func (q *calendarQueue) windowStart(at time.Duration) int64 {
	return int64(at) / q.width * q.width
}

func (q *calendarQueue) push(item *eventItem) {
	if q.n+1 > 2*len(q.buckets) && len(q.buckets) < cqMaxBuckets {
		q.resize()
	} else if q.n < len(q.buckets)/4 && len(q.buckets) > cqMinBuckets {
		// Shrink is checked here rather than at pop so drain loops stay
		// allocation-free; a ring oversized for its load is only memory.
		q.resize()
	}
	if int64(item.at) < q.top {
		// Earlier than the cursor's window: rewind so the lap-scan
		// invariant (nothing queued before top) keeps holding.
		q.cur = q.bucketFor(item.at)
		q.top = q.windowStart(item.at)
	}
	q.buckets[q.bucketFor(item.at)].insert(item)
	q.n++
	if q.min != nil && earlier(item, q.min) {
		//lint:pooled min memoises the queue head only while the item is queued; pop, reap, and resize all clear it before the item can be recycled
		q.min = item
		q.minBucket = q.bucketFor(item.at)
	}
}

// insert places it into the sorted run. Pushes arrive mostly in
// nondecreasing (at, seq) order, so the append fast path dominates; the
// binary-search path covers jitter and cursor rewinds.
func (b *itemRun) insert(it *eventItem) {
	if n := len(b.items); n == b.head || !earlier(it, b.items[n-1]) {
		b.items = append(b.items, it)
		return
	}
	lo, hi := b.head, len(b.items)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if earlier(it, b.items[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	b.items = append(b.items, nil)
	copy(b.items[lo+1:], b.items[lo:])
	b.items[lo] = it
}

// take removes the run's head slot, compacting the popped prefix once
// it outweighs the live remainder (capacity is kept for reuse).
func (b *itemRun) take() {
	b.items[b.head] = nil
	b.head++
	switch {
	case b.head == len(b.items):
		b.items = b.items[:0]
		b.head = 0
	case b.head > 32 && b.head*2 >= len(b.items):
		n := copy(b.items, b.items[b.head:])
		for i := n; i < len(b.items); i++ {
			b.items[i] = nil
		}
		b.items = b.items[:n]
		b.head = 0
	}
}

func (q *calendarQueue) peek() *eventItem {
	if q.n == 0 {
		return nil
	}
	if q.min != nil {
		return q.min
	}
	// Walk the ring one window at a time. Every item due in the cursor's
	// window hashes to the cursor's bucket, and bucket heads are bucket
	// minima, so the first due head is the global minimum.
	top := q.top
	cur := q.cur
	for scanned := 0; scanned < len(q.buckets); scanned++ {
		b := &q.buckets[cur]
		if b.head < len(b.items) {
			if it := b.items[b.head]; int64(it.at) < top+q.width {
				q.cur, q.top = cur, top
				//lint:pooled min memoises the queue head only while the item is queued; pop, reap, and resize all clear it before the item can be recycled
				q.min, q.minBucket = it, cur
				return it
			}
		}
		cur = int(uint64(cur+1) & q.mask)
		top += q.width
	}
	// A full lap with nothing due: the queue is sparse here. Find the
	// minimum directly across bucket heads and jump the cursor to it.
	var best *eventItem
	bestIdx := -1
	for i := range q.buckets {
		b := &q.buckets[i]
		if b.head < len(b.items) {
			if it := b.items[b.head]; best == nil || earlier(it, best) {
				best, bestIdx = it, i
			}
		}
	}
	q.cur = bestIdx
	q.top = q.windowStart(best.at)
	//lint:pooled min memoises the queue head only while the item is queued; pop, reap, and resize all clear it before the item can be recycled
	q.min, q.minBucket = best, bestIdx
	return best
}

func (q *calendarQueue) pop() *eventItem {
	it := q.peek()
	if it == nil {
		return nil
	}
	// The global minimum is the head of its bucket's sorted run.
	q.buckets[q.minBucket].take()
	q.cur = q.minBucket
	q.top = q.windowStart(it.at)
	q.min = nil
	q.n--
	at := int64(it.at)
	if gap := at - q.lastPop; gap >= 0 && at < cqFarFuture {
		q.gapAvg += (gap - q.gapAvg) / 8
	}
	q.lastPop = at
	return it
}

func (q *calendarQueue) reap(recycle func(*eventItem)) int {
	removed := 0
	for i := range q.buckets {
		removed += q.buckets[i].reap(recycle)
	}
	q.n -= removed
	q.min = nil // the cached head may have been reaped
	return removed
}

// reap removes every dead item in place, handing each to recycle, and
// returns how many it removed. Survivors keep their order.
func (b *itemRun) reap(recycle func(*eventItem)) int {
	live := b.items[:0]
	for _, it := range b.items[b.head:] {
		if it.dead() {
			recycle(it)
			continue
		}
		live = append(live, it)
	}
	removed := len(b.items) - b.head - len(live)
	for j := len(live); j < len(b.items); j++ {
		b.items[j] = nil
	}
	b.items = live
	b.head = 0
	return removed
}

// resize rebuilds the ring at the power-of-two size matching the current
// occupancy target (~1 item/bucket at the grow edge) and rechooses the
// bucket width from the pop-gap density estimate. Only the hashing
// changes; the (at, seq) keys — and therefore pop order — do not.
func (q *calendarQueue) resize() {
	target := cqMinBuckets
	for target < q.n && target < cqMaxBuckets {
		target <<= 1
	}
	items := make([]*eventItem, 0, q.n)
	var minAt, maxAt int64 = -1, -1
	for i := range q.buckets {
		b := &q.buckets[i]
		for _, it := range b.items[b.head:] {
			items = append(items, it)
			if at := int64(it.at); at < cqFarFuture {
				if minAt < 0 || at < minAt {
					minAt = at
				}
				if at > maxAt {
					maxAt = at
				}
			}
		}
	}
	width := 2 * q.gapAvg
	if width <= 0 && len(items) > 0 && minAt >= 0 {
		// No pops observed yet: estimate density from the spread of the
		// queued (non-sentinel) timestamps instead.
		width = (maxAt - minAt) / int64(2*len(items))
	}
	switch {
	case width <= 0:
		width = q.width
	case width > cqMaxWidth:
		width = cqMaxWidth
	}
	q.width = width
	q.initBuckets(target)
	for _, it := range items {
		q.buckets[q.bucketFor(it.at)].insert(it)
	}
	// Re-anchor the cursor at the queue head under the new geometry.
	q.min = nil
	q.cur, q.top = 0, 0
	if len(items) > 0 {
		var best *eventItem
		bestIdx := -1
		for i := range q.buckets {
			b := &q.buckets[i]
			if len(b.items) > 0 {
				if it := b.items[0]; best == nil || earlier(it, best) {
					best, bestIdx = it, i
				}
			}
		}
		q.cur = bestIdx
		q.top = q.windowStart(best.at)
		//lint:pooled min memoises the queue head only while the item is queued; pop, reap, and resize all clear it before the item can be recycled
		q.min, q.minBucket = best, bestIdx
	}
}
