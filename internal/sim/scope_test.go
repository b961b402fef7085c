package sim

import (
	"testing"
	"time"
)

// Crashing a node cancels its whole stack's timers at once. These tests pin
// the kernel's behavior under that mass cancellation: the heap survives,
// only live events fire, and the bookkeeping counters stay truthful.

func TestMassCancellationMidRun(t *testing.T) {
	k := New(1)
	const n = 2000
	fired := make([]bool, n)
	timers := make([]Timer, n)
	for i := 0; i < n; i++ {
		i := i
		timers[i] = k.After(time.Duration(i+1)*time.Millisecond, func() { fired[i] = true })
	}
	if got := k.Pending(); got != n {
		t.Fatalf("Pending() = %d, want %d", got, n)
	}

	// Run halfway, then cancel every odd timer that has not fired yet —
	// O(1000) cancellations against a populated heap.
	if err := k.RunUntil(time.Duration(n/2) * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for i := 1; i < n; i += 2 {
		if timers[i].Cancel() {
			cancelled++
		}
	}
	if want := n / 4; cancelled != want {
		t.Fatalf("cancelled %d timers, want %d", cancelled, want)
	}
	// Pending reports live events only — the cancelled half of the remaining
	// queue is excluded even while it sits in the heap awaiting lazy
	// reaping. PendingRaw still sees everything that is physically queued.
	if got := k.Pending(); got != n/4 {
		t.Fatalf("after cancel: Pending() = %d, want %d live", got, n/4)
	}
	if raw := k.PendingRaw(); raw < k.Pending() || raw > n/2 {
		t.Fatalf("after cancel: PendingRaw() = %d, want in [%d, %d]", raw, k.Pending(), n/2)
	}

	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, f := range fired {
		wantFired := i < n/2 || i%2 == 0
		if f != wantFired {
			t.Fatalf("timer %d: fired = %v, want %v", i, f, wantFired)
		}
	}
	if got := k.Pending(); got != 0 {
		t.Fatalf("after drain: Pending() = %d, want 0", got)
	}
	if got, want := k.Processed(), uint64(n-cancelled); got != want {
		t.Fatalf("Processed() = %d, want %d", got, want)
	}
}

func TestMassCancellationKeepsOrdering(t *testing.T) {
	// Interleave cancellations with live events and assert the survivors
	// still fire in time order with FIFO ties.
	k := New(7)
	var order []int
	var doomed []Timer
	for i := 0; i < 1000; i++ {
		i := i
		at := time.Duration(i%97) * time.Millisecond
		if i%3 == 0 {
			doomed = append(doomed, k.At(at, func() { t.Errorf("cancelled event %d fired", i) }))
		} else {
			k.At(at, func() { order = append(order, i%97) })
		}
	}
	for _, tm := range doomed {
		tm.Cancel()
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(order); j++ {
		if order[j] < order[j-1] {
			t.Fatalf("events fired out of order at %d: %d after %d", j, order[j], order[j-1])
		}
	}
	if len(order) == 0 {
		t.Fatal("no surviving events fired")
	}
}

func TestScopeCancelAll(t *testing.T) {
	k := New(3)
	s := NewScope(k)
	fired := 0
	for i := 0; i < 1500; i++ {
		s.After(time.Duration(i+1)*time.Millisecond, func() { fired++ })
	}
	// Members armed with reserved sequence numbers: 200 fire at 300ms,
	// and 100 reserved at 400ms for 700ms are still queued at 500ms when
	// the scope dies.
	for i := 0; i < 200; i++ {
		s.AtSeq(300*time.Millisecond, s.Reserve(), func() { fired++ })
	}
	k.At(400*time.Millisecond, func() {
		for i := 0; i < 100; i++ {
			s.AtSeq(700*time.Millisecond, s.Reserve(), func() { fired++ })
		}
	})
	if err := k.RunUntil(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired != 700 {
		t.Fatalf("fired = %d before cancel, want 700", fired)
	}
	if got := s.Pending(); got != 1100 {
		t.Fatalf("Pending() = %d before cancel, want 1100", got)
	}
	if got := s.CancelAll(); got != 1100 {
		t.Fatalf("CancelAll() = %d, want 1100", got)
	}
	if k.Pending() != 0 {
		t.Fatalf("kernel Pending() = %d after CancelAll, want 0", k.Pending())
	}
	if !s.Dead() {
		t.Fatal("scope not dead after CancelAll")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 700 {
		t.Fatalf("fired = %d after cancel, want 700 (cancelled timers ran)", fired)
	}
	// A dead scope schedules nothing and returns inert timers.
	tm := s.After(time.Millisecond, func() { fired++ })
	if tm.Pending() {
		t.Fatal("dead scope produced a pending timer")
	}
	// A dead scope reserves nothing: the kernel's next number follows
	// its last one.
	last := k.Reserve()
	if seq := s.Reserve(); seq != 0 {
		t.Fatalf("dead scope reserved seq %d, want 0", seq)
	}
	if next := k.Reserve(); next != last+1 {
		t.Fatalf("kernel reserved %d after %d across a dead scope's Reserve, want %d", next, last, last+1)
	}
	if tm := s.AtSeq(time.Second, last, func() { fired++ }); tm.Pending() {
		t.Fatal("dead scope produced a pending AtSeq timer")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 700 {
		t.Fatal("dead scope still scheduled an event")
	}
}

func TestScopeTracksOnlyItsOwnTimers(t *testing.T) {
	k := New(5)
	s1, s2 := NewScope(k), NewScope(k)
	var a, b int
	s1.After(time.Second, func() { a++ })
	s2.After(time.Second, func() { b++ })
	kFired := false
	k.After(time.Second, func() { kFired = true })
	if got := s1.Pending(); got != 1 {
		t.Fatalf("s1.Pending() = %d, want 1", got)
	}
	s1.CancelAll()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a != 0 || b != 1 || !kFired {
		t.Fatalf("cancel leaked across scopes: a=%d b=%d kernel=%v", a, b, kFired)
	}
}

// TestScopeAfterZeroAllocsWarm: scope membership rides on the pooled event
// item, so with a warm item pool scheduling through a scope allocates
// nothing — the scope keeps no per-timer storage that could grow.
func TestScopeAfterZeroAllocsWarm(t *testing.T) {
	k := New(9)
	s := NewScope(k)
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Microsecond, fn)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.After(time.Millisecond, fn).Cancel()
		s.After(time.Millisecond, fn)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("warm Scope.After allocates %.1f objects/op, want 0", allocs)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after every timer fired or was cancelled, want 0", got)
	}
}

// TestDeadScopeTimerIsInert: a handle scheduled before CancelAll reports
// not pending afterwards, and cancelling it is a no-op that leaves the
// kernel's live count alone.
func TestDeadScopeTimerIsInert(t *testing.T) {
	k := New(13)
	s := NewScope(k)
	tm := s.After(time.Second, func() { t.Fatal("timer of a dead scope fired") })
	k.After(2*time.Second, func() {})
	if !tm.Pending() {
		t.Fatal("fresh scoped timer not pending")
	}
	if got := s.CancelAll(); got != 1 {
		t.Fatalf("CancelAll() = %d, want 1", got)
	}
	if tm.Pending() {
		t.Fatal("timer of a dead scope still pending")
	}
	if tm.Cancel() {
		t.Fatal("Cancel() on a dead scope's timer reported a cancellation")
	}
	if got := k.Pending(); got != 1 {
		t.Fatalf("kernel Pending() = %d, want 1 (the unscoped timer)", got)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Pending() != 0 || k.PendingRaw() != 0 {
		t.Fatalf("drained kernel reports Pending=%d PendingRaw=%d", k.Pending(), k.PendingRaw())
	}
}

// TestScopeCancelAllTwice: killing a scope that is already dead cancels
// nothing and leaves the kernel's accounting untouched.
func TestScopeCancelAllTwice(t *testing.T) {
	k := New(17)
	s := NewScope(k)
	for i := 0; i < 10; i++ {
		s.After(time.Duration(i+1)*time.Millisecond, func() {})
	}
	k.After(time.Second, func() {})
	if got := s.CancelAll(); got != 10 {
		t.Fatalf("first CancelAll() = %d, want 10", got)
	}
	pending, raw := k.Pending(), k.PendingRaw()
	if got := s.CancelAll(); got != 0 {
		t.Fatalf("second CancelAll() = %d, want 0", got)
	}
	if k.Pending() != pending || k.PendingRaw() != raw {
		t.Fatalf("second CancelAll moved Pending %d->%d, PendingRaw %d->%d",
			pending, k.Pending(), raw, k.PendingRaw())
	}
	if pending != 1 || s.Pending() != 0 {
		t.Fatalf("kernel Pending = %d, scope Pending = %d; want 1 and 0", pending, s.Pending())
	}
}

func TestScopeClockDelegation(t *testing.T) {
	k := New(11)
	s := NewScope(k)
	k.After(3*time.Second, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != k.Now() {
		t.Fatal("scope clock diverged from kernel")
	}
	if d := s.UniformDuration(time.Second); d < 0 || d >= time.Second {
		t.Fatalf("UniformDuration out of range: %v", d)
	}
	if d := s.ExpDuration(1); d <= 0 {
		t.Fatalf("ExpDuration non-positive: %v", d)
	}
	if s.Rand() != k.Rand() {
		t.Fatal("scope must share the kernel's random source")
	}
}

// TestKernelOf covers the Clock unwrapping: direct kernel, scope, and
// foreign Clock (nil).
func TestKernelOf(t *testing.T) {
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
