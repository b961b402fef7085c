package sim

import (
	"testing"
	"time"
	"unsafe"
)

// TestEventItemSize pins the pooled item at 48 bytes on 64-bit platforms:
// the flags share the padding after the scope pointer, so marking lane
// members costs no memory per item.
func TestEventItemSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(eventItem{}); got != 48 {
		t.Fatalf("eventItem is %d bytes, want 48", got)
	}
}

func TestPostFiresInOrder(t *testing.T) {
	k := New(1)
	var got []int
	k.Post(2*time.Second, func() { got = append(got, 2) })
	k.Post(time.Second, func() { got = append(got, 1) })
	k.Post(-time.Second, func() { got = append(got, 0) }) // clamps to now
	k.Post(time.Second, nil)                              // ignored
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("fire order = %v, want [0 1 2]", got)
	}
	if k.Processed() != 3 {
		t.Fatalf("Processed = %d, want 3", k.Processed())
	}
}

// TestStaleTimerHandleAfterRecycle pins the generation guard: once an event
// fires, its pooled item may be reused for an unrelated event, and the old
// handle must neither report it pending nor cancel it.
func TestStaleTimerHandleAfterRecycle(t *testing.T) {
	k := New(1)
	first := k.After(time.Second, func() {})
	k.Run()
	if first.Pending() {
		t.Fatal("fired timer still pending")
	}
	// The next schedule reuses the recycled item (LIFO pool).
	fired := false
	second := k.After(time.Second, func() { fired = true })
	if first.Pending() {
		t.Fatal("stale handle reports the reused item as pending")
	}
	if first.Cancel() {
		t.Fatal("stale handle cancelled a reused item")
	}
	k.Run()
	if !fired {
		t.Fatal("second event killed by stale handle")
	}
	if second.Pending() {
		t.Fatal("second timer pending after firing")
	}
}

// TestCancelledTimerAtSurvivesRecycle: At() must keep answering with the
// original schedule time even after the underlying item was recycled.
func TestCancelledTimerAtSurvivesRecycle(t *testing.T) {
	k := New(1)
	tm := k.After(3*time.Second, func() {})
	tm.Cancel()
	for i := 0; i < 10; i++ {
		k.After(time.Duration(i)*time.Millisecond, func() {})
	}
	k.Run()
	if tm.At() != 3*time.Second {
		t.Fatalf("At() = %v after recycle, want 3s", tm.At())
	}
}

// TestZeroTimerIsInert: the zero Timer (as embedded in structs before any
// scheduling) must be safe to query and cancel.
func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	if tm.Pending() {
		t.Fatal("zero Timer pending")
	}
	if tm.Cancel() {
		t.Fatal("zero Timer cancelled something")
	}
	if tm.At() != 0 {
		t.Fatalf("zero Timer At() = %v", tm.At())
	}
}

// TestCompactionReapsCancelledMajority: when cancelled items dominate the
// queue, the kernel reaps them eagerly instead of carrying them to their
// pop time, and the survivors still fire in order.
func TestCompactionReapsCancelledMajority(t *testing.T) {
	k := New(1)
	const n = 300
	timers := make([]Timer, n)
	for i := 0; i < n; i++ {
		timers[i] = k.At(time.Duration(i)*time.Millisecond, func() {})
	}
	// Cancel two thirds: well past both the floor and the majority trigger.
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			timers[i].Cancel()
		}
	}
	// Compaction fires once the cancelled majority crosses the threshold;
	// cancels after that sit below the floor and are reaped lazily at pop.
	// Contract: substantially fewer than n items remain queued, and never
	// fewer than the live ones.
	if got := k.PendingRaw(); got >= n*2/3 || got < n/3 {
		t.Fatalf("PendingRaw after mass cancel = %d, want in [%d, %d)", got, n/3, n*2/3)
	}
	// Pending excludes the lazily reaped cancels regardless of whether
	// compaction has caught up: exactly the live third remains.
	if got := k.Pending(); got != n/3 {
		t.Fatalf("Pending after mass cancel = %d, want %d live", got, n/3)
	}
	var fired int
	var last time.Duration
	k.Post(time.Duration(n)*time.Millisecond, func() {})
	for k.Step() {
		if k.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", k.Now(), last)
		}
		last = k.Now()
		fired++
	}
	if fired != n/3+1 {
		t.Fatalf("fired %d events, want %d", fired, n/3+1)
	}
}

// TestCompactionPreservesDeterminism: a run with heavy mid-run cancellation
// must fire the same events at the same times whether or not compaction's
// threshold is crossed — pop order is fully keyed by (at, seq).
func TestCompactionPreservesDeterminism(t *testing.T) {
	run := func(cancelCount int) []time.Duration {
		k := New(7)
		var trace []time.Duration
		timers := make([]Timer, 0, 256)
		for i := 0; i < 256; i++ {
			d := k.UniformDuration(time.Second)
			timers = append(timers, k.After(d, func() { trace = append(trace, k.Now()) }))
		}
		for i := 0; i < cancelCount; i++ {
			timers[i*2%256].Cancel()
		}
		k.Run()
		return trace
	}
	below := run(10) // stays under compactMinCancelled
	k2 := run(10)
	if len(below) != len(k2) {
		t.Fatalf("same seed diverged: %d vs %d events", len(below), len(k2))
	}
	for i := range below {
		if below[i] != k2[i] {
			t.Fatalf("event %d at %v vs %v", i, below[i], k2[i])
		}
	}
}

// TestPostZeroAllocsWarm is the scheduled-event allocation regression pin:
// with a warm item pool, a fire-and-forget Post plus its Step must not touch
// the heap at all.
func TestPostZeroAllocsWarm(t *testing.T) {
	k := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.Post(time.Duration(i)*time.Microsecond, fn)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		k.Post(time.Millisecond, fn)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("warm Post+Step allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAtAllocsWarm bounds the cancellable path: an At with a warm pool
// allocates nothing (the Timer handle is a value).
func TestAtAllocsWarm(t *testing.T) {
	k := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.Post(time.Duration(i)*time.Microsecond, fn)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		tm := k.After(time.Millisecond, fn)
		k.Step()
		_ = tm.Pending()
	})
	if allocs != 0 {
		t.Fatalf("warm After+Step allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkPostWarm(b *testing.B) {
	k := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.Post(time.Duration(i)*time.Microsecond, fn)
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Post(time.Millisecond, fn)
		k.Step()
	}
}
