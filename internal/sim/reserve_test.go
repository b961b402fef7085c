package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// reserveDelays are the fixed delays the script's deadlines use, so its
// timers often share an instant with each other and with queue traffic.
var reserveDelays = [2]time.Duration{3 * time.Millisecond, 7 * time.Millisecond}

// reserveScript is a deterministic workload replayed twice: once arming
// each deadline with At the moment it is created, once reserving its
// sequence number then and arming it later with AtSeq, after other
// scheduling has taken later numbers. Every op draws from the script's own
// rand stream, so both replays issue the same calls in the same order.
type reserveScript struct {
	seed int64
	ops  int
}

// lateTimer is a deadline whose seq is reserved but whose timer is not
// armed yet; slot is its place in the replay's handle list.
type lateTimer struct {
	c    Clock
	at   time.Duration
	seq  uint64
	fn   Event
	slot int
}

// replay drives the script through a fresh kernel and returns its log: one
// entry per fired event ("<id>@<time>") and, after every op and every
// single step, the kernel's Pending/PendingRaw and the live scope's
// Pending. With late set, deadlines are reserved and armed later, in
// reverse order, at the end of the op or event that created them; every
// op that cancels or runs the kernel finds them all armed. The workload
// mixes:
//
//   - deadlines on two delays, kernel-level and scoped, some created
//     inside firing events (as the watch buffer creates its deadlines)
//   - At/Post on the queue between a reservation and its AtSeq, at the
//     same instant, so only the reserved seq orders the tie
//   - cancels of random handles and cancel bursts large enough to trigger
//     compaction
//   - Scope.CancelAll with reserved members, followed by a fresh scope,
//     and deadlines reserved on the dead scope afterwards
//   - RunUntil deadlines that fall between timers, and single Steps
func (s reserveScript) replay(t testing.TB, late bool) []string {
	t.Helper()
	k := New(1)
	rng := rand.New(rand.NewSource(s.seed))
	scope := NewScope(k)
	var dead *Scope
	var log []string
	var timers []Timer
	var pending []lateTimer
	note := func(what string) {
		log = append(log, fmt.Sprintf("%s pending=%d raw=%d scope=%d",
			what, k.Pending(), k.PendingRaw(), scope.Pending()))
	}
	// deadline creates a timer at at through c: armed now, or reserved now
	// and left for flush.
	deadline := func(c Clock, at time.Duration, fn Event) {
		if !late {
			timers = append(timers, c.At(at, fn))
			return
		}
		seq := c.Reserve()
		if c == dead && seq != 0 {
			t.Fatalf("dead scope reserved seq %d, want 0", seq)
		}
		pending = append(pending, lateTimer{c: c, at: at, seq: seq, fn: fn, slot: len(timers)})
		timers = append(timers, Timer{})
	}
	// flush arms the reserved deadlines, the newest first.
	flush := func() {
		for i := len(pending) - 1; i >= 0; i-- {
			p := pending[i]
			timers[p.slot] = p.c.AtSeq(p.at, p.seq, p.fn)
		}
		pending = pending[:0]
	}
	var record func(id int) Event
	record = func(id int) Event {
		return func() {
			log = append(log, fmt.Sprintf("%d@%d", id, k.Now()))
			if id%5 == 0 {
				// Create a deadline inside an event and let a queue
				// event take the same instant before it is armed; the
				// id decides, so both replays act alike without rng.
				d := reserveDelays[id%2]
				deadline(scope, k.Now()+d, record(id+1))
				k.Post(d, record(id+2))
				flush()
			}
		}
	}
	step := func() {
		k.Step()
		note("step")
	}
	for i := 0; i < s.ops; i++ {
		id := 10 * i
		switch rng.Intn(13) {
		case 0, 1: // kernel-level deadline, maybe tied by a queue event
			d := reserveDelays[rng.Intn(2)]
			deadline(k, k.Now()+d, record(id))
			if rng.Intn(2) == 0 {
				timers = append(timers, k.At(k.Now()+d, record(id+1)))
			}
		case 2, 3: // scoped deadline, maybe tied by a queue event
			d := reserveDelays[rng.Intn(2)]
			deadline(scope, k.Now()+d, record(id))
			if rng.Intn(2) == 0 {
				k.Post(d, record(id+1))
			}
		case 4: // reservations and queue events interleaved on one instant
			d := reserveDelays[rng.Intn(2)]
			deadline(scope, k.Now()+d, record(id))
			timers = append(timers, scope.At(k.Now()+d, record(id+1)))
			deadline(k, k.Now()+d, record(id+2))
			k.Post(d, record(id+3))
			deadline(scope, k.Now()+d, record(id+4))
		case 5: // random queue traffic around a deadline at a random time
			at := k.Now() + time.Duration(rng.Intn(10000))*time.Microsecond
			deadline(scope, at, record(id))
			if rng.Intn(2) == 0 {
				k.Post(time.Duration(rng.Intn(10000))*time.Microsecond, record(id+1))
			} else {
				timers = append(timers, scope.At(k.Now()+time.Duration(rng.Intn(10000))*time.Microsecond, record(id+1)))
			}
		case 6: // cancel one handle, possibly fired, stale or inert
			if len(timers) > 0 {
				timers[rng.Intn(len(timers))].Cancel()
			}
		case 7: // a burst on one instant, then cancel most of it
			d := reserveDelays[rng.Intn(2)]
			start := len(timers)
			for j := 0; j < 40; j++ {
				deadline(scope, k.Now()+d, record(id+j%10))
			}
			flush()
			for j := start; j < len(timers); j++ {
				if rng.Intn(8) != 0 {
					timers[j].Cancel()
				}
			}
		case 8: // crash: kill the scope with its members, start anew
			if rng.Intn(3) == 0 {
				scope.CancelAll()
				note("cancelall")
				dead, scope = scope, NewScope(k)
			}
		case 9: // deadline that usually falls between timers
			if err := k.RunUntil(k.Now() + time.Duration(rng.Intn(5000))*time.Microsecond); err != nil {
				t.Fatalf("RunUntil: %v", err)
			}
		case 10, 11:
			for j := rng.Intn(4); j > 0; j-- {
				step()
			}
		case 12: // a dead scope reserves and schedules nothing
			if dead != nil {
				deadline(dead, k.Now()+reserveDelays[rng.Intn(2)], record(id))
				deadline(k, k.Now()+reserveDelays[rng.Intn(2)], record(id+1))
			}
		}
		flush()
		note("op")
	}
	for k.Pending() > 0 {
		step()
	}
	return log
}

// checkReserveScript requires the late-armed replay to match the At
// replay exactly.
func checkReserveScript(t *testing.T, s reserveScript) {
	t.Helper()
	plain := s.replay(t, false)
	late := s.replay(t, true)
	if len(plain) != len(late) {
		t.Fatalf("seed %d: At replay logged %d entries, AtSeq replay %d",
			s.seed, len(plain), len(late))
	}
	for i := range plain {
		if plain[i] != late[i] {
			t.Fatalf("seed %d: replays diverge at entry %d: At %q, AtSeq %q",
				s.seed, i, plain[i], late[i])
		}
	}
}

// TestReservedSeqEquivalence: a timer armed late with AtSeq at a reserved
// sequence number is indistinguishable from one armed with At when the
// number was reserved — same fire sequence, same Pending, PendingRaw and
// scope counts after every op and step.
func TestReservedSeqEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		checkReserveScript(t, reserveScript{seed: seed, ops: 400})
	}
}

// FuzzReservedSeqEquivalence is the fuzzing entry for the same property.
func FuzzReservedSeqEquivalence(f *testing.F) {
	f.Add(int64(1), 50)
	f.Add(int64(42), 300)
	f.Add(int64(-7), 997)
	f.Fuzz(func(t *testing.T, seed int64, ops int) {
		if ops < 0 || ops > 2000 {
			t.Skip()
		}
		checkReserveScript(t, reserveScript{seed: seed, ops: ops})
	})
}

// TestAtSeqZeroAllocsWarm pins the late-arming path: with a warm item
// pool, reserving, arming with AtSeq, cancelling and firing — through the
// kernel and through a scope — allocates nothing.
func TestAtSeqZeroAllocsWarm(t *testing.T) {
	k := New(1)
	s := NewScope(k)
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.AtSeq(k.Now()+time.Millisecond, k.Reserve(), fn)
		s.AtSeq(k.Now()+time.Millisecond, s.Reserve(), fn)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		at := k.Now() + time.Millisecond
		a, b, c := k.Reserve(), s.Reserve(), s.Reserve()
		s.AtSeq(at, c, fn)
		s.AtSeq(at, b, fn).Cancel()
		k.AtSeq(at, a, fn).Cancel()
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("warm AtSeq allocates %.1f objects/op, want 0", allocs)
	}
	if k.Pending() != 0 || k.PendingRaw() != 0 || s.Pending() != 0 {
		t.Fatalf("drained kernel reports Pending=%d PendingRaw=%d scope=%d",
			k.Pending(), k.PendingRaw(), s.Pending())
	}
}
