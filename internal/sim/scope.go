package sim

import (
	"math/rand"
	"time"
)

// Clock is the scheduling surface components program against. *Kernel
// implements it directly; *Scope implements it with group cancellation so a
// whole protocol stack's timers can be torn down at once (node crash).
// Timers armed with At/After go to the kernel's priority queue; timers that
// all share one delay may go through AfterLane instead, which appends to a
// FIFO with the same firing order and a cheaper insert.
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// At schedules fn at absolute virtual time t.
	At(t time.Duration, fn Event) Timer
	// After schedules fn d from now.
	After(d time.Duration, fn Event) Timer
	// Lane returns the shared lane for fixed delay d.
	Lane(d time.Duration) *Lane
	// AfterLane schedules fn the lane's delay from now, exactly as After
	// would, on the lane's FIFO instead of the priority queue. Use it for
	// a deadline armed in bulk with one fixed delay.
	AfterLane(l *Lane, fn Event) Timer
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
	// live counts this scope's timers still in the queue, laneLive those
	// still on lanes, neither fired nor cancelled. The kernel decrements
	// them as they fire or are cancelled; CancelAll charges each to the
	// kernel's tally for the structure that holds it.
	live     int
	laneLive int
	dead     bool
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

// Lane implements Clock: the kernel's shared lane for delay d.
func (s *Scope) Lane(d time.Duration) *Lane { return s.k.Lane(d) }

// AfterLane schedules fn on the lane as a member of the scope.
func (s *Scope) AfterLane(l *Lane, fn Event) Timer {
	if s.dead || fn == nil {
		return Timer{}
	}
	return s.adopt(s.k.AfterLane(l, fn))
}

// adopt makes a timer the kernel just scheduled a member of the scope.
func (s *Scope) adopt(t Timer) Timer {
	t.item.scope = s
	if t.item.inLane {
		s.laneLive++
	} else {
		s.live++
	}
	return t
}

// forget drops a member that fired or was cancelled from the live counts.
func (s *Scope) forget(it *eventItem) {
	if it.inLane {
		s.laneLive--
	} else {
		s.live--
	}
}

// Pending returns the number of the scope's timers that have neither fired
// nor been cancelled, queued and laned alike.
func (s *Scope) Pending() int { return s.live + s.laneLive }

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
	queued, laned := s.live, s.laneLive
	s.live, s.laneLive = 0, 0
	s.dead = true
	s.k.noteCancelled(queued, laned)
	return queued + laned
}
