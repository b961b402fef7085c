package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// queueScript is a deterministic workload of scheduling operations replayed
// identically against kernels on different queue backends. Every op draws
// from the script's own rand stream, never the kernel's, so the kernel RNG
// stays byte-for-byte aligned between replays.
type queueScript struct {
	seed int64
	ops  int
}

// replay drives the script through a fresh kernel on the given queue and
// returns the observed firing trace: one "<id>@<virtual time>" entry per
// fired event, in firing order. The workload deliberately mixes:
//
//   - Post (handle-free), After, and At scheduling
//   - bursts at an identical timestamp (FIFO tie-break coverage)
//   - cancellations through live timers, repeated cancels, and stale
//     handles kept across firing (generation-fence coverage)
//   - interleaved Step calls so pushes land both before and after pops,
//     exercising the calendar cursor-rewind and resize paths
func (s queueScript) replay(t testing.TB, q Queue) []string {
	t.Helper()
	k := NewWithQueue(1, q)
	rng := rand.New(rand.NewSource(s.seed))
	var trace []string
	var timers []Timer
	record := func(id int) Event {
		return func() { trace = append(trace, fmt.Sprintf("%d@%d", id, k.Now())) }
	}
	for i := 0; i < s.ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // Post at a random near-future offset
			k.Post(time.Duration(rng.Intn(5000))*time.Microsecond, record(i))
		case 3, 4: // After with a cancellable handle
			timers = append(timers, k.After(time.Duration(rng.Intn(5000))*time.Microsecond, record(i)))
		case 5: // At, sometimes in the past (clamps to now)
			at := k.Now() + time.Duration(rng.Intn(2000)-500)*time.Microsecond
			timers = append(timers, k.At(at, record(i)))
		case 6: // same-timestamp burst: FIFO tie-break must hold
			at := k.Now() + time.Duration(rng.Intn(1000))*time.Microsecond
			for j := 0; j < 3; j++ {
				k.At(at, record(i*10+j))
			}
		case 7: // cancel a random outstanding handle (possibly stale/fired)
			if len(timers) > 0 {
				timers[rng.Intn(len(timers))].Cancel()
			}
		case 8: // far-future straggler, keeps the queue sparse at the tail
			k.Post(time.Duration(rng.Intn(60))*time.Second, record(i))
		case 9: // drain a few events so pushes interleave with pops
			for j := rng.Intn(4); j > 0; j-- {
				k.Step()
			}
		}
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return trace
}

// TestQueueEquivalenceRandomized replays randomized workloads through the
// heap and calendar backends and requires bit-identical firing traces —
// same events, same order, same virtual timestamps. This is the property
// the golden trace hashes rest on, checked at the queue seam directly.
func TestQueueEquivalenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := queueScript{seed: seed, ops: 400}
		heapTrace := s.replay(t, NewHeapQueue())
		calTrace := s.replay(t, NewCalendarQueue())
		if len(heapTrace) != len(calTrace) {
			t.Fatalf("seed %d: heap fired %d events, calendar %d", seed, len(heapTrace), len(calTrace))
		}
		for i := range heapTrace {
			if heapTrace[i] != calTrace[i] {
				t.Fatalf("seed %d: traces diverge at event %d: heap %q, calendar %q",
					seed, i, heapTrace[i], calTrace[i])
			}
		}
	}
}

// FuzzQueueEquivalence is the fuzzing entry for the same property: any
// (seed, ops) workload must fire identically on both backends.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add(int64(1), 50)
	f.Add(int64(42), 300)
	f.Add(int64(-7), 997)
	f.Fuzz(func(t *testing.T, seed int64, ops int) {
		if ops < 0 || ops > 2000 {
			t.Skip()
		}
		s := queueScript{seed: seed, ops: ops}
		heapTrace := s.replay(t, NewHeapQueue())
		calTrace := s.replay(t, NewCalendarQueue())
		if len(heapTrace) != len(calTrace) {
			t.Fatalf("heap fired %d events, calendar %d", len(heapTrace), len(calTrace))
		}
		for i := range heapTrace {
			if heapTrace[i] != calTrace[i] {
				t.Fatalf("traces diverge at event %d: heap %q, calendar %q", i, heapTrace[i], calTrace[i])
			}
		}
	})
}

// TestPendingAccountingAcrossBackends cross-checks the live-count invariant
// Pending() == live scheduled events on both backends while lazy reaping,
// compaction, and (for the calendar) resize all trigger, for timers
// cancelled one by one and through a dead scope, in the queue and on a lane. PendingRaw may lag behind
// (dead items awaiting reap) but must never undercount Pending.
func TestPendingAccountingAcrossBackends(t *testing.T) {
	for _, kind := range QueueKinds() {
		t.Run(kind, func(t *testing.T) {
			k := NewWithQueue(7, NewQueue(kind))
			if got := k.QueueKind(); got != kind {
				t.Fatalf("QueueKind() = %q, want %q", got, kind)
			}
			const n = 600
			timers := make([]Timer, 0, n)
			// Spread far enough apart that the calendar queue's density
			// estimate forces at least one grow and later a shrink.
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
			// Drain with interleaved refills so pops, lazy pop-side reaps,
			// and push-side resizes all run under accounting checks.
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

			// Lane members: cancels in the middle of a lane, a CancelAll
			// below the compaction trigger whose items are reaped lazily
			// when they reach the front, and a CancelAll that compacts.
			lane := k.Lane(50 * time.Millisecond)
			laneSmall, laneBig := NewScope(k), NewScope(k)
			base := k.Now()
			fired = 0
			for i := 0; i < 200; i++ {
				k.After(time.Duration(i)*time.Millisecond, count)
			}
			var laneTimers []Timer
			for i := 0; i < 30; i++ {
				laneTimers = append(laneTimers, laneSmall.AfterLane(lane, count))
			}
			for i := 0; i < 300; i++ {
				laneBig.AfterLane(lane, count)
			}
			k.AfterLane(lane, count)
			checkDead("lane schedules", 531, 0)
			for _, tm := range laneTimers[5:15] {
				tm.Cancel()
			}
			checkDead("mid-lane cancels", 521, 10)
			if got := laneSmall.Pending(); got != 20 {
				t.Fatalf("laneSmall.Pending() = %d, want 20", got)
			}
			if got := laneSmall.CancelAll(); got != 20 {
				t.Fatalf("laneSmall.CancelAll() = %d, want 20", got)
			}
			checkDead("lane CancelAll", 501, 30)
			if err := k.RunUntil(base + 49*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			// Nothing on the lane is due before 50ms, so its dead items
			// stay held.
			checkDead("before the lane front", 451, 30)
			// The queue item at 50ms was armed before the lane items, so
			// it fires first and the dead lane front stays held.
			k.Step()
			checkDead("queue wins the tie", 450, 30)
			// Next in (at, seq) order is the dead lane front: it is reaped
			// and laneBig's first member fires.
			k.Step()
			checkDead("lane front reaped", 449, 0)
			if got := laneBig.CancelAll(); got != 299 {
				t.Fatalf("laneBig.CancelAll() = %d, want 299", got)
			}
			// 299 dead against 150 live: CancelAll compacted the lane.
			checkDead("compacting lane CancelAll", 150, 0)
			for k.Step() {
			}
			if want := 200 + 1 + 1; fired != want {
				t.Fatalf("fired %d events around lane cancellation, want %d", fired, want)
			}
			checkDead("lane drain", 0, 0)
		})
	}
}

// TestQueueFactory pins the selector surface: known kinds construct their
// backend, the empty string selects the default, unknown kinds are nil.
func TestQueueFactory(t *testing.T) {
	if q := NewQueue(""); q == nil || q.kind() != QueueCalendar {
		t.Errorf(`NewQueue("") = %v, want calendar`, q)
	}
	for _, kind := range QueueKinds() {
		if !KnownQueue(kind) {
			t.Errorf("KnownQueue(%q) = false", kind)
		}
		q := NewQueue(kind)
		if q == nil || q.kind() != kind {
			t.Errorf("NewQueue(%q) = %v", kind, q)
		}
	}
	if KnownQueue("splay") {
		t.Error(`KnownQueue("splay") = true`)
	}
	if q := NewQueue("splay"); q != nil {
		t.Errorf(`NewQueue("splay") = %v, want nil`, q)
	}
	if k := NewWithQueue(1, nil); k.QueueKind() != QueueCalendar {
		t.Errorf("NewWithQueue(nil) kind = %q, want calendar", k.QueueKind())
	}
}

// TestCalendarResizeRoundTrip forces the ring through grow and shrink and
// checks pop order survives: push a large spread, drain half, push a
// trickle, drain the rest — all against a reference heap kernel.
func TestCalendarResizeRoundTrip(t *testing.T) {
	s := queueScript{seed: 424242, ops: 1500}
	heapTrace := s.replay(t, NewHeapQueue())
	calTrace := s.replay(t, NewCalendarQueue())
	if len(heapTrace) == 0 {
		t.Fatal("workload fired no events")
	}
	for i := range heapTrace {
		if heapTrace[i] != calTrace[i] {
			t.Fatalf("traces diverge at event %d: heap %q, calendar %q", i, heapTrace[i], calTrace[i])
		}
	}
}

// TestCalendarSparseFarFuture covers the direct-search fallback: a handful
// of events scattered over minutes of virtual time (thousands of empty
// bucket windows apart) must still pop in (at, seq) order.
func TestCalendarSparseFarFuture(t *testing.T) {
	k := NewWithQueue(3, NewCalendarQueue())
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
