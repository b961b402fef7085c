package sim

import (
	"fmt"
	"testing"
	"time"
)

// wheelCache is a minimal wheel client for tests: a map of expiring records
// following the uniform liveness convention (live while now < exp).
type wheelCache struct {
	clock Clock
	slot  WheelSlot
	ttl   time.Duration
	recs  map[int]time.Duration
}

func newWheelCache(clock Clock, w *Wheel, ttl time.Duration) *wheelCache {
	c := &wheelCache{clock: clock, ttl: ttl, recs: make(map[int]time.Duration)}
	c.slot = w.Register(c.sweep)
	return c
}

func (c *wheelCache) put(id int) {
	exp := c.clock.Now() + c.ttl
	c.recs[id] = exp
	c.slot.Arm(exp)
}

func (c *wheelCache) live(id int) bool {
	exp, ok := c.recs[id]
	return ok && c.clock.Now() < exp
}

func (c *wheelCache) sweep(now time.Duration) int {
	n := 0
	for id, exp := range c.recs {
		if exp <= now {
			delete(c.recs, id)
			n++
		}
	}
	return n
}

// TestWheelSweepsExpiredRecords: records are reaped by the first epoch
// boundary at or after their expiry, and never before they expire.
func TestWheelSweepsExpiredRecords(t *testing.T) {
	k := New(1)
	w := NewWheel(k, time.Second)
	c := newWheelCache(k, w, 2500*time.Millisecond)

	c.put(1) // expires at 2.5s -> swept at epoch 3s
	if err := k.RunUntil(2400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !c.live(1) {
		t.Fatal("record dead before its TTL elapsed")
	}
	if _, ok := c.recs[1]; !ok {
		t.Fatal("record deleted before its TTL elapsed")
	}
	if err := k.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.recs[1]; ok {
		t.Fatalf("record still in map after the 3s sweep (exp 2.5s)")
	}
	st := w.Stats()
	if st.Sweeps != 1 || st.Records != 1 {
		t.Fatalf("stats = %+v, want 1 sweep reaping 1 record", st)
	}
}

// TestWheelBoundaryExpiry pins the shared convention at the epoch boundary:
// a record expiring exactly at t is dead to readers at t (now < exp fails)
// and the sweep scheduled for t removes it.
func TestWheelBoundaryExpiry(t *testing.T) {
	k := New(1)
	w := NewWheel(k, time.Second)
	c := newWheelCache(k, w, time.Second) // expiry lands exactly on an epoch

	c.put(7) // expires at 1s, sweep at 1s
	var liveAtBoundary bool
	k.At(time.Second, func() {
		// Whatever the same-timestamp ordering of this event vs. the sweep,
		// a reader at now == exp must see the record as dead: liveness is
		// now < exp, map presence is a memory detail.
		liveAtBoundary = c.live(7)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if liveAtBoundary {
		t.Fatal("record live at now == exp; convention is live iff now < exp")
	}
	if _, ok := c.recs[7]; ok {
		t.Fatal("boundary record survived the boundary sweep")
	}
}

// TestWheelCollapsesEventPressure is the point of the wheel: N records with
// the same TTL inserted within one epoch cost one kernel sweep event, not N
// timer events — and that event is tagged housekeeping.
func TestWheelCollapsesEventPressure(t *testing.T) {
	k := New(1)
	w := NewWheel(k, time.Second)
	c := newWheelCache(k, w, 5*time.Second)

	const n = 1000
	for i := 0; i < n; i++ {
		k.At(time.Duration(i)*time.Millisecond, func() { c.put(i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(c.recs) != 0 {
		t.Fatalf("%d records survived the run", len(c.recs))
	}
	st := w.Stats()
	if st.Records != n {
		t.Fatalf("reaped %d records, want %d", st.Records, n)
	}
	// Inserts span [0, 1s), expiries span [5s, 6s) -> epochs 5 and 6: at
	// most 2 sweeps (plus none spurious).
	if st.Sweeps > 2 {
		t.Fatalf("%d sweep events for %d records in 2 epochs, want <= 2", st.Sweeps, n)
	}
	if hk := k.ProcessedHousekeeping(); hk != st.Sweeps {
		t.Fatalf("kernel housekeeping count %d != wheel sweeps %d", hk, st.Sweeps)
	}
	if k.Processed() != uint64(n)+st.Sweeps {
		t.Fatalf("Processed = %d, want %d puts + %d sweeps", k.Processed(), n, st.Sweeps)
	}
}

// TestWheelMultiCacheDeterministicOrder: within one sweep event, due epochs
// run ascending and each epoch's caches run in arming order; a cache armed
// for several due epochs sweeps only once.
func TestWheelMultiCacheDeterministicOrder(t *testing.T) {
	k := New(1)
	w := NewWheel(k, time.Second)
	var order []int
	mk := func(tag int) (WheelSlot, *int) {
		calls := new(int)
		var slot WheelSlot
		slot = w.Register(func(now time.Duration) int {
			order = append(order, tag)
			*calls++
			return 0
		})
		return slot, calls
	}
	a, aCalls := mk(1)
	b, bCalls := mk(2)

	// b arms epoch 2, a arms epochs 2 then 3; everything is due by 3s but
	// the first sweep fires at 2s and handles only epoch 2.
	b.Arm(1500 * time.Millisecond) // epoch 2
	a.Arm(1200 * time.Millisecond) // epoch 2 (after b in arming order)
	a.Arm(2100 * time.Millisecond) // epoch 3
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 1 {
		t.Fatalf("sweep order = %v, want [2 1 1] (epoch 2: b then a; epoch 3: a)", order)
	}
	if *aCalls != 2 || *bCalls != 1 {
		t.Fatalf("cache sweep counts a=%d b=%d, want 2/1", *aCalls, *bCalls)
	}
}

// TestWheelSingleSweepCoversMultipleDueEpochs: when the sweep timer for an
// earlier epoch is pulled forward past several armed epochs' worth of
// virtual time (possible when the kernel clamps past-due schedules), one
// sweep event services all due epochs and a cache armed in several of them
// runs exactly once.
func TestWheelSingleSweepCoversMultipleDueEpochs(t *testing.T) {
	k := New(1)
	w := NewWheel(k, time.Second)
	calls := 0
	var slot WheelSlot
	slot = w.Register(func(now time.Duration) int { calls++; return 0 })

	// Advance the clock to 10s with the wheel idle, then arm epochs that
	// are already in the past: At clamps them to now, so the single sweep
	// event sees every epoch due at once.
	k.At(10*time.Second, func() {
		slot.Arm(2 * time.Second) // epoch 2, long past
	})
	k.RunUntil(9 * time.Second)
	// Arm epoch 3 and 4 from "outside" while now=9s: also past-due once the
	// 10s event runs, but the clamped sweep at 9s handles them first.
	slot.Arm(2500 * time.Millisecond) // epoch 3... wait: 2.5s -> epoch 3
	slot.Arm(3100 * time.Millisecond) // epoch 4
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Epochs 3 and 4 due together at the clamped 9s sweep (one cache call);
	// epoch 2 armed at 10s, due immediately (second call).
	if calls != 2 {
		t.Fatalf("cache swept %d times, want 2 (one per sweep event)", calls)
	}
	if w.Stats().Sweeps != 2 {
		t.Fatalf("sweeps = %d, want 2", w.Stats().Sweeps)
	}
}

// TestWheelShortTTLPullsSweepForward: a later-armed shorter deadline must
// reschedule the pending sweep earlier, not wait behind the long epoch.
func TestWheelShortTTLPullsSweepForward(t *testing.T) {
	k := New(1)
	w := NewWheel(k, time.Second)
	long := newWheelCache(k, w, 30*time.Second)
	short := newWheelCache(k, w, 2*time.Second)

	long.put(1)  // epoch 30
	short.put(2) // epoch 2 — must pull the sweep forward
	if err := k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := short.recs[2]; ok {
		t.Fatal("short-TTL record not reaped at 2s; sweep stuck behind the 30s epoch")
	}
	if _, ok := long.recs[1]; !ok {
		t.Fatal("long-TTL record reaped 28s early")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := long.recs[1]; ok {
		t.Fatal("long-TTL record never reaped")
	}
}

// TestWheelOutOfOrderEpochs: caches with different TTLs arm epochs out of
// order — before, between and onto already armed ones. Each epoch's bucket
// must keep its own caches in arming order, and sweeps must run in epoch
// order.
func TestWheelOutOfOrderEpochs(t *testing.T) {
	k := New(1)
	w := NewWheel(k, time.Second)
	var order []string
	slot := func(tag string) WheelSlot {
		return w.Register(func(now time.Duration) int {
			order = append(order, fmt.Sprintf("%s@%v", tag, now))
			return 0
		})
	}
	a, b, c, d := slot("a"), slot("b"), slot("c"), slot("d")
	a.Arm(30 * time.Second) // epoch 30, appended
	b.Arm(5 * time.Second)  // epoch 5, inserted before 30
	c.Arm(10 * time.Second) // epoch 10, inserted between 5 and 30
	d.Arm(10 * time.Second) // epoch 10 again: joins c's bucket
	a.Arm(2 * time.Second)  // epoch 2, inserted at the front
	b.Arm(30 * time.Second) // epoch 30 again: joins a's bucket
	if got, want := fmt.Sprint(w.epochs), "[2 5 10 30]"; got != want {
		t.Fatalf("epochs = %s, want %s", got, want)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a@2s b@5s c@10s d@10s a@30s b@30s]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("sweeps = %s, want %s", got, want)
	}
	if len(w.epochs) != 0 || len(w.buckets) != 0 {
		t.Fatalf("drained wheel holds %d epochs, %d buckets", len(w.epochs), len(w.buckets))
	}
}

// TestWheelOnDeadScope: a wheel scheduled through a node scope dies with the
// node — CancelAll cancels the pending sweep and later arms schedule
// nothing, so a crashed node's caches stop generating kernel events.
func TestWheelOnDeadScope(t *testing.T) {
	k := New(1)
	sc := NewScope(k)
	w := NewWheel(sc, time.Second)
	c := newWheelCache(sc, w, 2*time.Second)
	c.put(1)

	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (the sweep)", k.Pending())
	}
	sc.CancelAll()
	if k.Pending() != 0 {
		t.Fatalf("pending = %d after CancelAll, want 0", k.Pending())
	}
	// Arm a fresh epoch (epoch 2 would be deduplicated): the dead scope
	// must swallow the reschedule.
	c.slot.Arm(5 * time.Second)
	if k.Pending() != 0 {
		t.Fatalf("dead-scope Arm scheduled an event")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Sweeps != 0 {
		t.Fatalf("dead wheel swept %d times", w.Stats().Sweeps)
	}
}

// TestWheelZeroSlotInert: the zero WheelSlot (struct field before wiring)
// must accept Arm without scheduling or panicking.
func TestWheelZeroSlotInert(t *testing.T) {
	var s WheelSlot
	s.Arm(time.Second) // must not panic
}

// TestWheelKernelOf covers the Clock unwrapping used for the housekeeping
// counter: direct kernel, scope, and foreign Clock (nil).
func TestWheelKernelOf(t *testing.T) {
	k := New(1)
	if KernelOf(k) != k {
		t.Fatal("KernelOf(*Kernel) != kernel")
	}
	if KernelOf(NewScope(k)) != k {
		t.Fatal("KernelOf(*Scope) != underlying kernel")
	}
	if KernelOf(nil) != nil {
		t.Fatal("KernelOf(nil) != nil")
	}
}

// TestWheelArmZeroAllocsWarm is the wheel-insert regression pin: arming a
// warm wheel (buckets and epoch slices recycled) must not touch the heap.
func TestWheelArmZeroAllocsWarm(t *testing.T) {
	k := New(1)
	w := NewWheel(k, time.Second)
	c := newWheelCache(k, w, 2*time.Second)

	// Warm up: grow the bucket pool, epoch slice and record map, and let a
	// few sweeps recycle buckets back to the freelist.
	for i := 0; i < 64; i++ {
		c.put(i)
		k.RunFor(500 * time.Millisecond)
	}
	k.Run()

	allocs := testing.AllocsPerRun(200, func() {
		c.slot.Arm(k.Now() + 2*time.Second)
		k.RunFor(3 * time.Second) // drain so every iteration re-arms a fresh epoch
	})
	if allocs != 0 {
		t.Fatalf("warm wheel Arm allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkWheelArmWarm(b *testing.B) {
	k := New(1)
	w := NewWheel(k, time.Second)
	c := newWheelCache(k, w, 2*time.Second)
	for i := 0; i < 64; i++ {
		c.put(i)
		k.RunFor(500 * time.Millisecond)
	}
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.slot.Arm(k.Now() + 2*time.Second)
		k.RunFor(3 * time.Second)
	}
}
