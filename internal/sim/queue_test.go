package sim

import (
	"cmp"
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// heapQueue is the reference priority queue the kernel's event heap is
// checked against: a container/heap binary heap over the same items in the
// same (at, seq) order.
type heapQueue struct {
	h eventHeap
}

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

// reap rebuilds the heap from the surviving items.
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

// queueScript is a deterministic workload of queue operations, replayed in
// lockstep on the kernel's event heap and on the container/heap oracle.
// Every op draws from the script's own rand stream.
type queueScript struct {
	seed int64
	ops  int
}

// replay pushes items with explicit (at, seq) keys into both queues — the
// same pointers, so pops compare by identity — and fails at the first pop,
// peek, size or reap on which they disagree, or at the first op after
// which an item of the event heap is earlier than its parent. Time follows
// the kernel's contract: nothing is pushed earlier than the last pop. The
// mix covers:
//
//   - near-future pushes, and same-at bursts (FIFO tie-break by seq)
//   - pushes after a peek that land before the peeked head, so they sift
//     all the way to the root
//   - far-future stragglers and "never" sentinels
//   - cancels of random items and reaps of the dead ones
//   - bursts of hundreds of items at a few instants, drained and followed
//     by a trickle of single push/pop pairs
func (s queueScript) replay(t testing.TB) {
	t.Helper()
	q, ref := &eventQueue{}, &heapQueue{}
	rng := rand.New(rand.NewSource(s.seed))
	var (
		pops   int
		now    time.Duration
		seq    uint64
		pushed []*eventItem
	)
	check := func(op string) {
		t.Helper()
		if q.size() != ref.size() {
			t.Fatalf("seed %d %s: event heap holds %d items, oracle %d", s.seed, op, q.size(), ref.size())
		}
		for i := 1; i < len(q.items); i++ {
			if parent := (i - 1) / 2; earlier(q.items[i], q.items[parent]) {
				t.Fatalf("seed %d %s: item %d %v is earlier than its parent %d %v",
					s.seed, op, i, q.items[i], parent, q.items[parent])
			}
		}
	}
	push := func(at time.Duration) {
		seq++
		it := &eventItem{at: at, seq: seq}
		q.push(it)
		ref.push(it)
		pushed = append(pushed, it)
	}
	peek := func() *eventItem {
		t.Helper()
		a, b := q.peek(), ref.peek()
		if a != b {
			t.Fatalf("seed %d: peek diverges: event heap %v, oracle %v", s.seed, a, b)
		}
		return a
	}
	pop := func() {
		t.Helper()
		a, b := q.pop(), ref.pop()
		if a != b {
			t.Fatalf("seed %d pop %d: event heap %v, oracle %v", s.seed, pops, a, b)
		}
		if a == nil {
			return
		}
		if a.at < now {
			t.Fatalf("seed %d pop %d: time ran backwards from %v to %v", s.seed, pops, now, a.at)
		}
		now = a.at
		pops++
	}
	us := func(n int) time.Duration { return time.Duration(rng.Intn(n)) * time.Microsecond }
	for i := 0; i < s.ops; i++ {
		switch rng.Intn(12) {
		case 0, 1, 2: // near-future push
			push(now + us(5000))
		case 3: // push before the peeked head: sifts to the root
			if head := peek(); head != nil && head.at > now {
				push(now + time.Duration(rng.Int63n(int64(head.at-now))))
			} else {
				push(now)
			}
		case 4: // same-at burst: FIFO tie-break must hold
			at := now + us(1000)
			for j := 3 + rng.Intn(6); j > 0; j-- {
				push(at)
			}
		case 5: // far-future straggler, or a "never" sentinel
			if rng.Intn(4) == 0 {
				push(max(now, time.Duration(1<<62-1)))
			} else {
				push(now + time.Duration(rng.Intn(60))*time.Second)
			}
		case 6: // cancel a recent item, which may already be popped
			if n := len(pushed); n > 0 {
				pushed[n-1-rng.Intn(min(n, 256))].cancelled = true
			}
		case 7: // reap every dead item from both queues
			var a, b []*eventItem
			na := q.reap(func(it *eventItem) { a = append(a, it) })
			nb := ref.reap(func(it *eventItem) { b = append(b, it) })
			bySeq := func(x, y *eventItem) int { return cmp.Compare(x.seq, y.seq) }
			slices.SortFunc(a, bySeq)
			slices.SortFunc(b, bySeq)
			if na != nb || !slices.Equal(a, b) {
				t.Fatalf("seed %d: reap removed %d items from the event heap, %d from the oracle", s.seed, na, nb)
			}
		case 8, 9: // pop a few
			for j := rng.Intn(4); j > 0; j-- {
				pop()
			}
		case 10:
			peek()
		case 11: // burst at a few instants, drain it, then trickle
			n := 100 + rng.Intn(400)
			instants := 1 + rng.Intn(3)
			base := now + us(2000)
			for j := 0; j < n; j++ {
				push(base + time.Duration(j%instants)*time.Millisecond)
			}
			for j := 0; j < n; j++ {
				pop()
			}
			for j := 20 + rng.Intn(40); j > 0; j-- {
				push(now + us(2000))
				pop()
			}
		}
		check("op")
	}
	for q.size() > 0 {
		pop()
	}
	check("drain")
}

// TestQueueEquivalenceRandomized replays randomized scripts through the
// event heap and the container/heap oracle and requires identical pops —
// same items, same order. This is the property the golden trace hashes
// rest on.
func TestQueueEquivalenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		queueScript{seed: seed, ops: 400}.replay(t)
	}
}

// FuzzQueueEquivalence is the fuzzing entry for the same property: any
// (seed, ops) script must pop identically from both queues.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add(int64(1), 50)
	f.Add(int64(42), 300)
	f.Add(int64(-7), 997)
	f.Fuzz(func(t *testing.T, seed int64, ops int) {
		if ops < 0 || ops > 2000 {
			t.Skip()
		}
		queueScript{seed: seed, ops: ops}.replay(t)
	})
}

// TestPendingAccountingAcrossBackends checks the live-count invariant
// Pending() == live scheduled events while lazy reaping and compaction
// both trigger, for timers cancelled one by one and through a dead scope,
// armed at once or late with reserved sequence numbers (AtSeq).
// PendingRaw may lag behind (dead items awaiting reap) but must never
// undercount Pending. The event heap is the kernel's one queue, so it is
// the one subtest (named "calendar" for the queue it replaced).
func TestPendingAccountingAcrossBackends(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		k := New(7)
		const n = 600
		timers := make([]Timer, 0, n)
		for i := 0; i < n; i++ {
			timers = append(timers, k.After(time.Duration(i)*time.Millisecond, func() {}))
		}
		if got := k.Pending(); got != n {
			t.Fatalf("Pending after %d schedules = %d", n, got)
		}
		// Cancel every third timer; compaction will fire mid-way (the
		// threshold is 64 cancelled and cancelled*2 > size).
		cancelled := 0
		for i := 0; i < n; i += 3 {
			if timers[i].Cancel() {
				cancelled++
			}
		}
		if got, want := k.Pending(), n-cancelled; got != want {
			t.Fatalf("Pending after cancels = %d, want %d", got, want)
		}
		if k.PendingRaw() < k.Pending() {
			t.Fatalf("PendingRaw %d < Pending %d", k.PendingRaw(), k.Pending())
		}
		// Drain so pops and lazy pop-side reaps run under accounting
		// checks.
		fired := 0
		for i := 0; i < 200; i++ {
			before := k.Pending()
			if !k.Step() {
				t.Fatalf("queue drained early at step %d", i)
			}
			fired++
			if got := k.Pending(); got != before-1 {
				t.Fatalf("step %d: Pending %d -> %d, want %d", i, before, got, before-1)
			}
			if k.PendingRaw() < k.Pending() {
				t.Fatalf("step %d: PendingRaw %d < Pending %d", i, k.PendingRaw(), k.Pending())
			}
		}
		live := k.Pending()
		for k.Step() {
			fired++
		}
		if got, want := fired, n-cancelled; got != want {
			t.Fatalf("fired %d events, want %d", got, want)
		}
		if live != n-cancelled-200 {
			t.Fatalf("mid-drain Pending = %d, want %d", live, n-cancelled-200)
		}
		if k.Pending() != 0 || k.PendingRaw() != 0 {
			t.Fatalf("drained kernel reports Pending=%d PendingRaw=%d", k.Pending(), k.PendingRaw())
		}

		// Scope cancellation on the drained kernel: Pending() ==
		// PendingRaw() minus the dead items still queued must hold
		// through individual cancels of scoped timers, a CancelAll
		// below the compaction trigger (its items are reaped lazily
		// at pop), and a CancelAll that compacts.
		checkDead := func(stage string, wantLive, wantDead int) {
			t.Helper()
			if got := k.Pending(); got != wantLive {
				t.Fatalf("%s: Pending() = %d, want %d", stage, got, wantLive)
			}
			if got := k.PendingRaw() - k.Pending(); got != wantDead {
				t.Fatalf("%s: PendingRaw()-Pending() = %d dead items, want %d", stage, got, wantDead)
			}
		}
		small, big := NewScope(k), NewScope(k)
		fired = 0
		count := func() { fired++ }
		for i := 0; i < 300; i++ {
			k.After(time.Duration(i)*time.Millisecond, count)
		}
		var smallTimers []Timer
		for i := 0; i < 40; i++ {
			smallTimers = append(smallTimers, small.After(time.Duration(3*i)*time.Millisecond, count))
		}
		for i := 0; i < 400; i++ {
			big.After(time.Duration(i)*time.Millisecond, count)
		}
		checkDead("scoped schedules", 740, 0)
		for _, tm := range smallTimers[:10] {
			tm.Cancel()
		}
		checkDead("scoped cancels", 730, 10)
		if got := small.Pending(); got != 30 {
			t.Fatalf("small.Pending() = %d, want 30", got)
		}
		if got := small.CancelAll(); got != 30 {
			t.Fatalf("small.CancelAll() = %d, want 30", got)
		}
		checkDead("small CancelAll", 700, 40)
		for i := 0; i < 100; i++ {
			before := k.Pending()
			if !k.Step() {
				t.Fatalf("queue drained early at scoped step %d", i)
			}
			if got := k.Pending(); got != before-1 {
				t.Fatalf("scoped step %d: Pending %d -> %d, want %d", i, before, got, before-1)
			}
			if k.PendingRaw() < k.Pending() {
				t.Fatalf("scoped step %d: PendingRaw %d < Pending %d", i, k.PendingRaw(), k.Pending())
			}
		}
		if got := k.Pending(); got != 600 {
			t.Fatalf("after 100 scoped steps: Pending() = %d, want 600", got)
		}
		bigLive := big.Pending()
		if got := big.CancelAll(); got != bigLive {
			t.Fatalf("big.CancelAll() = %d, want %d", got, bigLive)
		}
		// Dead items now outnumber live ones, so CancelAll compacted.
		checkDead("big CancelAll", 600-bigLive, 0)
		for k.Step() {
		}
		if want := 100 + 600 - bigLive; fired != want {
			t.Fatalf("fired %d events around scope cancellation, want %d", fired, want)
		}
		checkDead("scoped drain", 0, 0)

		// Late-armed members: 331 sequence numbers reserved in a row
		// for one instant and armed in reverse, so every AtSeq sifts up
		// past items already queued for that instant. Then cancels among them,
		// a CancelAll below the compaction trigger whose items are
		// reaped lazily when they reach the front, and a CancelAll that
		// compacts.
		base := k.Now()
		due := base + 50*time.Millisecond
		fired = 0
		for i := 0; i < 200; i++ {
			k.After(time.Duration(i)*time.Millisecond, count)
		}
		lateSmall, lateBig := NewScope(k), NewScope(k)
		clocks := make([]Clock, 0, 331)
		for i := 0; i < 30; i++ {
			clocks = append(clocks, lateSmall)
		}
		for i := 0; i < 300; i++ {
			clocks = append(clocks, lateBig)
		}
		clocks = append(clocks, k)
		seqs := make([]uint64, len(clocks))
		for i, c := range clocks {
			seqs[i] = c.Reserve()
		}
		lateTimers := make([]Timer, len(clocks))
		for i := len(clocks) - 1; i >= 0; i-- {
			lateTimers[i] = clocks[i].AtSeq(due, seqs[i], count)
		}
		checkDead("late schedules", 531, 0)
		for _, tm := range lateTimers[5:15] {
			tm.Cancel()
		}
		checkDead("late cancels", 521, 10)
		if got := lateSmall.Pending(); got != 20 {
			t.Fatalf("lateSmall.Pending() = %d, want 20", got)
		}
		if got := lateSmall.CancelAll(); got != 20 {
			t.Fatalf("lateSmall.CancelAll() = %d, want 20", got)
		}
		checkDead("late CancelAll", 501, 30)
		if err := k.RunUntil(due - time.Millisecond); err != nil {
			t.Fatal(err)
		}
		// Nothing reserved is due before 50ms, so its dead items stay
		// held.
		checkDead("before the reserved instant", 451, 30)
		// The After item at 50ms took its seq before the reservations,
		// so it fires first and the dead reserved items stay held.
		k.Step()
		checkDead("earlier seq wins the tie", 450, 30)
		// Next in (at, seq) order are lateSmall's 30 dead items: they
		// are reaped and lateBig's first member fires.
		k.Step()
		checkDead("dead reserved items reaped", 449, 0)
		if got := lateBig.CancelAll(); got != 299 {
			t.Fatalf("lateBig.CancelAll() = %d, want 299", got)
		}
		// 299 dead against 150 live: CancelAll compacted the queue.
		checkDead("compacting CancelAll", 150, 0)
		for k.Step() {
		}
		if want := 200 + 1 + 1; fired != want {
			t.Fatalf("fired %d events around late-armed cancellation, want %d", fired, want)
		}
		checkDead("late drain", 0, 0)
	})
}

// TestCalendarSparseFarFuture: a handful of events scattered over hours of
// virtual time must pop in (at, seq) order (named for the calendar queue
// the event heap replaced, whose sparse-queue fallback it was written for).
func TestCalendarSparseFarFuture(t *testing.T) {
	k := New(3)
	var got []int
	for i, d := range []time.Duration{
		45 * time.Minute, 3 * time.Second, 9 * time.Hour, 10 * time.Microsecond, 2 * time.Minute,
	} {
		id := i
		k.Post(d, func() { got = append(got, id) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 4, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}
