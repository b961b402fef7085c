package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// laneDelays are the fixed delays the lane script arms; two lanes make the
// kernel merge more than one FIFO with the queue.
var laneDelays = [2]time.Duration{3 * time.Millisecond, 7 * time.Millisecond}

// laneScript is a deterministic workload replayed twice on one queue
// backend: once arming its fixed-delay timers with plain After, once
// through lanes. Every op draws from the script's own rand stream, so both
// replays issue the same calls in the same order.
type laneScript struct {
	seed int64
	ops  int
}

// replay drives the script through a fresh kernel and returns its log: one
// entry per fired event ("<id>@<time>") and, after every op and every
// single step, the kernel's Pending/PendingRaw and the live scope's
// Pending. The workload mixes:
//
//   - fixed-delay timers on two delays, kernel-level and scoped, some armed
//     from inside firing events (as the watch buffer arms its deadlines)
//   - At/Post on the queue, including At(now+delay) and Post(delay) that
//     tie with a lane item on at and are ordered by seq alone
//   - cancels of random handles, which land mid-lane, and cancel bursts
//     large enough to trigger compaction
//   - Scope.CancelAll with lane members, followed by a fresh scope
//   - RunUntil deadlines that fall between lane items, and single Steps
func (s laneScript) replay(t testing.TB, q Queue, lanes bool) []string {
	t.Helper()
	k := NewWithQueue(1, q)
	rng := rand.New(rand.NewSource(s.seed))
	scope := NewScope(k)
	var log []string
	var timers []Timer
	note := func(what string) {
		log = append(log, fmt.Sprintf("%s pending=%d raw=%d scope=%d",
			what, k.Pending(), k.PendingRaw(), scope.Pending()))
	}
	// fixed arms a fixed-delay timer through the clock c, on a lane or not.
	fixed := func(c Clock, which int, fn Event) Timer {
		d := laneDelays[which]
		if lanes {
			return c.AfterLane(c.Lane(d), fn)
		}
		return c.After(d, fn)
	}
	var record func(id int) Event
	record = func(id int) Event {
		return func() {
			log = append(log, fmt.Sprintf("%d@%d", id, k.Now()))
			if id%5 == 0 {
				// Re-arm from inside an event; the id decides, so both
				// replays arm identically without touching rng.
				fixed(scope, id%2, record(id+1))
			}
		}
	}
	step := func() {
		k.Step()
		note("step")
	}
	for i := 0; i < s.ops; i++ {
		id := 10 * i
		switch rng.Intn(12) {
		case 0, 1: // kernel-level fixed-delay timer
			timers = append(timers, fixed(k, rng.Intn(2), record(id)))
		case 2, 3: // scoped fixed-delay timer
			timers = append(timers, fixed(scope, rng.Intn(2), record(id)))
		case 4: // At/Post on the queue tying with a lane item's at
			d := laneDelays[rng.Intn(2)]
			if rng.Intn(2) == 0 {
				timers = append(timers, k.At(k.Now()+d, record(id)))
			} else {
				k.Post(d, record(id))
			}
			timers = append(timers, fixed(scope, rng.Intn(2), record(id+1)))
		case 5: // random queue traffic
			if rng.Intn(2) == 0 {
				k.Post(time.Duration(rng.Intn(10000))*time.Microsecond, record(id))
			} else {
				timers = append(timers, scope.At(k.Now()+time.Duration(rng.Intn(10000))*time.Microsecond, record(id)))
			}
		case 6: // cancel one handle, possibly fired, stale or mid-lane
			if len(timers) > 0 {
				timers[rng.Intn(len(timers))].Cancel()
			}
		case 7: // arm a burst on one lane, then cancel most of it
			which := rng.Intn(2)
			start := len(timers)
			for j := 0; j < 40; j++ {
				timers = append(timers, fixed(scope, which, record(id+j%10)))
			}
			for j := start; j < len(timers); j++ {
				if rng.Intn(8) != 0 {
					timers[j].Cancel()
				}
			}
		case 8: // crash: kill the scope with its lane members, start anew
			if rng.Intn(3) == 0 {
				scope.CancelAll()
				note("cancelall")
				scope = NewScope(k)
			}
		case 9: // deadline that usually falls between lane items
			if err := k.RunUntil(k.Now() + time.Duration(rng.Intn(5000))*time.Microsecond); err != nil {
				t.Fatalf("RunUntil: %v", err)
			}
		case 10, 11:
			for j := rng.Intn(4); j > 0; j-- {
				step()
			}
		}
		note("op")
	}
	for k.Pending() > 0 {
		step()
	}
	return log
}

// checkLaneScript requires the lane replay to match the After replay
// exactly on both queue backends.
func checkLaneScript(t *testing.T, s laneScript) {
	t.Helper()
	for _, kind := range QueueKinds() {
		plain := s.replay(t, NewQueue(kind), false)
		laned := s.replay(t, NewQueue(kind), true)
		if len(plain) != len(laned) {
			t.Fatalf("%s seed %d: After replay logged %d entries, lane replay %d",
				kind, s.seed, len(plain), len(laned))
		}
		for i := range plain {
			if plain[i] != laned[i] {
				t.Fatalf("%s seed %d: replays diverge at entry %d: After %q, lane %q",
					kind, s.seed, i, plain[i], laned[i])
			}
		}
	}
}

// TestLaneEquivalenceRandomized: arming fixed-delay timers on lanes instead
// of the queue changes nothing observable — same fire sequence, same
// Pending, PendingRaw and scope counts after every op and step.
func TestLaneEquivalenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		checkLaneScript(t, laneScript{seed: seed, ops: 400})
	}
}

// FuzzLaneEquivalence is the fuzzing entry for the same property.
func FuzzLaneEquivalence(f *testing.F) {
	f.Add(int64(1), 50)
	f.Add(int64(42), 300)
	f.Add(int64(-7), 997)
	f.Fuzz(func(t *testing.T, seed int64, ops int) {
		if ops < 0 || ops > 2000 {
			t.Skip()
		}
		checkLaneScript(t, laneScript{seed: seed, ops: ops})
	})
}

// TestLaneSharedPerDelay: one lane per distinct delay, shared by every
// caller and every scope; negative delays fold into the zero lane.
func TestLaneSharedPerDelay(t *testing.T) {
	k := New(1)
	s := NewScope(k)
	a := k.Lane(time.Second)
	if s.Lane(time.Second) != a || k.Lane(time.Second) != a {
		t.Fatal("same delay returned different lanes")
	}
	if k.Lane(2*time.Second) == a {
		t.Fatal("different delays share a lane")
	}
	if k.Lane(-time.Second) != k.Lane(0) || k.Lane(0).d != 0 {
		t.Fatal("negative delay not folded into the zero lane")
	}
	if got := len(k.lanes); got != 3 {
		t.Fatalf("kernel holds %d lanes, want 3", got)
	}
	tm := k.AfterLane(a, func() {})
	if !tm.Pending() || tm.At() != time.Second {
		t.Fatalf("lane timer pending=%v at=%v, want pending at 1s", tm.Pending(), tm.At())
	}
	if k.AfterLane(a, nil).Pending() || s.AfterLane(a, nil).Pending() {
		t.Fatal("nil fn scheduled a lane timer")
	}
}

// TestAfterLaneZeroAllocsWarm pins the lane arm path: with a warm item pool
// and lane slice, arming, cancelling and firing lane timers — through the
// kernel and through a scope — allocates nothing.
func TestAfterLaneZeroAllocsWarm(t *testing.T) {
	k := New(1)
	s := NewScope(k)
	l := k.Lane(time.Millisecond)
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.AfterLane(l, fn)
		s.AfterLane(l, fn)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		k.AfterLane(l, fn).Cancel()
		s.AfterLane(l, fn).Cancel()
		s.AfterLane(l, fn)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("warm AfterLane allocates %.1f objects/op, want 0", allocs)
	}
	if k.Pending() != 0 || k.PendingRaw() != 0 || s.Pending() != 0 {
		t.Fatalf("drained kernel reports Pending=%d PendingRaw=%d scope=%d",
			k.Pending(), k.PendingRaw(), s.Pending())
	}
}
