package sim

import (
	"math/rand"
	"time"
)

// Clock is the scheduling surface components program against. *Kernel
// implements it directly; *Scope implements it with group cancellation so a
// whole protocol stack's timers can be torn down at once (node crash).
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// At schedules fn at absolute virtual time t.
	At(t time.Duration, fn Event) Timer
	// After schedules fn d from now.
	After(d time.Duration, fn Event) Timer
	// Reserve takes the sequence number a timer scheduled now would get.
	Reserve() uint64
	// AtSeq schedules fn at (t, seq) with seq from an earlier Reserve, so
	// it fires where At at the Reserve would have put it.
	AtSeq(t time.Duration, seq uint64, fn Event) Timer
	// Rand returns the deterministic random source.
	Rand() *rand.Rand
	// ExpDuration draws an exponential inter-arrival duration.
	ExpDuration(ratePerSecond float64) time.Duration
	// UniformDuration draws uniformly from [0, max).
	UniformDuration(max time.Duration) time.Duration
}

var _ Clock = (*Kernel)(nil)
var _ Clock = (*Scope)(nil)

// Scope is a cancellable timer group over a Kernel. CancelAll cancels every
// timer scheduled through the scope and kills it, after which further
// scheduling is a silent no-op. One scope models one incarnation of a node:
// crashing the node cancels its whole stack's pending work (watch
// deadlines, route evictors, discovery phases) in a single call, and a
// reboot starts over with a fresh scope.
//
// Membership is carried on the event items, not in the scope: each item
// scheduled through the scope points back at it, and the kernel treats an
// item whose scope is dead exactly like an individually cancelled one. The
// scope itself keeps only counts of its live timers, so CancelAll is O(1)
// and the dead items are reclaimed by the kernel's lazy pop and compaction
// path.
type Scope struct {
	k *Kernel
	// live counts this scope's timers that have neither fired nor been
	// cancelled. The kernel decrements it as they fire or are cancelled;
	// CancelAll charges them all to the kernel's dead-item tally.
	live int
	dead bool
}

// NewScope returns a live scope over k.
func NewScope(k *Kernel) *Scope {
	return &Scope{k: k}
}

// Now implements Clock.
func (s *Scope) Now() time.Duration { return s.k.Now() }

// Rand implements Clock.
func (s *Scope) Rand() *rand.Rand { return s.k.Rand() }

// ExpDuration implements Clock.
func (s *Scope) ExpDuration(rate float64) time.Duration { return s.k.ExpDuration(rate) }

// UniformDuration implements Clock.
func (s *Scope) UniformDuration(max time.Duration) time.Duration {
	return s.k.UniformDuration(max)
}

// At schedules fn at absolute time t as a member of the scope. A dead scope
// returns an inert timer and schedules nothing.
func (s *Scope) At(t time.Duration, fn Event) Timer {
	if s.dead || fn == nil {
		return Timer{}
	}
	return s.adopt(s.k.At(t, fn))
}

// After schedules fn d from now as a member of the scope.
func (s *Scope) After(d time.Duration, fn Event) Timer {
	if s.dead || fn == nil {
		return Timer{}
	}
	return s.adopt(s.k.After(d, fn))
}

// Reserve implements Clock. A dead scope takes no number and returns 0,
// as its At takes none; its AtSeq schedules nothing.
func (s *Scope) Reserve() uint64 {
	if s.dead {
		return 0
	}
	return s.k.Reserve()
}

// AtSeq schedules fn at (t, seq) as a member of the scope.
func (s *Scope) AtSeq(t time.Duration, seq uint64, fn Event) Timer {
	if s.dead || fn == nil {
		return Timer{}
	}
	return s.adopt(s.k.AtSeq(t, seq, fn))
}

// adopt makes a timer the kernel just scheduled a member of the scope.
func (s *Scope) adopt(t Timer) Timer {
	t.item.scope = s
	s.live++
	return t
}

// Pending returns the number of the scope's timers that have neither fired
// nor been cancelled.
func (s *Scope) Pending() int { return s.live }

// Dead reports whether CancelAll has been called.
func (s *Scope) Dead() bool { return s.dead }

// CancelAll cancels every pending timer scheduled through the scope and
// marks the scope dead. It returns how many timers were actually cancelled
// (timers that already fired or were cancelled individually do not count,
// and a second call cancels nothing).
func (s *Scope) CancelAll() int {
	if s.dead {
		return 0
	}
	n := s.live
	s.live = 0
	s.dead = true
	s.k.noteCancelled(n)
	return n
}
