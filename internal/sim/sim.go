// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of scheduled
// events. Events scheduled for the same instant fire in scheduling order
// (FIFO), which—together with an explicitly seeded random source—makes every
// run fully reproducible: the same seed and the same scenario produce an
// identical event trace.
//
// The kernel is intentionally single-threaded. All node logic in the
// simulator runs inside event callbacks on one goroutine, so packages built
// on top of sim need no locking of their own.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// ErrStopped is returned by Run variants when the kernel was stopped
// explicitly via Stop before the run condition was reached.
var ErrStopped = errors.New("sim: kernel stopped")

// Event is a scheduled callback. It carries no arguments; closures capture
// whatever state they need.
type Event func()

// Timer is a handle to a scheduled event that can be cancelled. It is a
// small value type: the zero Timer is valid and inert (not pending, Cancel
// is a no-op), so structs can embed one without an allocation or a nil
// check.
//
// Event items are pooled: once an event fires (or a cancelled one is
// reaped) its item is recycled for a future event. A Timer therefore
// captures the item's generation at scheduling time; every operation checks
// it, so a stale handle whose item has been reused reports not-pending and
// refuses to cancel, exactly as a fired timer always has.
type Timer struct {
	k    *Kernel
	item *eventItem
	gen  uint64
	at   time.Duration
}

// Cancel prevents the timer's event from firing. It reports whether the
// event was actually cancelled (false if it already fired or was cancelled
// before).
func (t Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	t.item.cancelled = true
	if s := t.item.scope; s != nil {
		s.live--
	}
	t.k.noteCancelled(1)
	return true
}

// At returns the virtual time the timer is scheduled for.
func (t Timer) At() time.Duration { return t.at }

// Pending reports whether the event is still waiting to fire.
func (t Timer) Pending() bool {
	return t.item != nil && t.item.gen == t.gen && !t.item.dead()
}

type eventItem struct {
	at  time.Duration
	seq uint64
	gen uint64 // incremented on every recycle; stale-handle guard
	fn  Event
	// scope is the Scope the item was scheduled through, nil for kernel
	// timers and posts. An item whose scope has died is dead exactly as if
	// it had been cancelled individually.
	scope     *Scope
	cancelled bool
}

// earlier is the kernel's strict total order on items: by time, then by
// scheduling sequence. Every structure that holds items pops by it.
func earlier(a, b *eventItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// dead reports whether the queued item must not fire: it was cancelled
// individually, or its scope was cancelled as a whole. Every read of an
// item's cancellation state goes through here.
func (it *eventItem) dead() bool {
	return it.cancelled || (it.scope != nil && it.scope.dead)
}

// Kernel is the discrete-event simulation core: a virtual clock, an event
// queue, and a deterministic random source.
type Kernel struct {
	now time.Duration
	// seq is the last sequence number handed out (see Reserve).
	seq     uint64
	queue   eventQueue
	rng     *rand.Rand
	stopped bool
	// processed counts events that have fired, for diagnostics and as a
	// runaway guard in tests.
	processed uint64
	// free is the eventItem recycling pool: items whose event fired or
	// whose cancellation was reaped go here instead of to the garbage
	// collector, so steady-state scheduling allocates nothing.
	free []*eventItem
	// cancelledQueued counts cancelled items still sitting in the queue;
	// when they dominate, noteCancelled reaps them in one pass so
	// cancel-heavy workloads (ARQ and alert retries, scope kills) stop
	// growing the queue.
	cancelledQueued int
}

// New returns a kernel whose clock starts at zero and whose random source is
// seeded with seed.
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic random source. All randomness in a
// simulation must come from here to preserve reproducibility.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Processed returns the number of events that have fired so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// ProcessedHousekeeping is always 0. It counted the sweeps of the expiry
// Wheel, which is gone: every record is now reclaimed by its owner inside
// a protocol event, so all of Processed is protocol work. It stays until
// the benchmark's report, which reads it, stops doing so.
func (k *Kernel) ProcessedHousekeeping() uint64 { return 0 }

// KernelOf unwraps the Clock implementations this package provides; an
// external Clock yields nil.
func KernelOf(c Clock) *Kernel {
	switch c := c.(type) {
	case *Kernel:
		return c
	case *Scope:
		return c.k
	}
	return nil
}

// Pending returns the number of live events currently scheduled —
// cancelled items still awaiting lazy reaping are excluded, so the count
// answers the question callers actually ask ("is anything still going to
// happen?"). The invariant Pending() ==
// PendingRaw() - cancelled-but-held holds through lazy reaping and
// compaction.
func (k *Kernel) Pending() int {
	return k.PendingRaw() - k.cancelledQueued
}

// PendingRaw returns the raw count of queued items, including cancelled
// items that have not yet been popped or compacted away. It exists for
// tests exercising the lazy-reaping machinery itself; everyone else wants
// Pending.
func (k *Kernel) PendingRaw() int { return k.queue.size() }

// Reserve hands out the next sequence number, the one At would give a
// timer scheduled now. A caller that knows now when an event is due but
// arms it later passes the number to AtSeq, and the event then pops where
// At would have put it (see AtSeq).
func (k *Kernel) Reserve() uint64 {
	k.seq++
	return k.seq
}

// newItem takes an eventItem from the pool (or allocates one) and
// initializes it for scheduling at (t, seq).
func (k *Kernel) newItem(t time.Duration, seq uint64, fn Event) *eventItem {
	if n := len(k.free); n > 0 {
		item := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		item.at, item.seq, item.fn = t, seq, fn
		item.cancelled = false
		return item
	}
	return &eventItem{at: t, seq: seq, fn: fn}
}

// recycle returns a popped item to the pool. Bumping the generation
// invalidates every outstanding Timer handle to it; dropping fn and scope
// releases the closure's captures and the scope immediately.
func (k *Kernel) recycle(item *eventItem) {
	item.gen++
	item.fn = nil
	item.scope = nil
	k.free = append(k.free, item)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is an error in the caller; the kernel clamps it to "now" so the event
// still fires, preserving causality rather than panicking mid-run.
func (k *Kernel) At(t time.Duration, fn Event) Timer {
	if fn == nil {
		return Timer{}
	}
	return k.AtSeq(t, k.Reserve(), fn)
}

// AtSeq schedules fn at (t, seq), where seq came from an earlier Reserve.
// Armed before the kernel has run past (t, seq), fn fires exactly where
// At(t, fn) called at the Reserve would have put it: after every event
// scheduled for t before the Reserve, before every one scheduled after.
// A caller can so hold its deadlines in a structure of its own and arm a
// kernel timer only for the next one due. A t before now is clamped to
// now, as At does. Nil fn is ignored.
func (k *Kernel) AtSeq(t time.Duration, seq uint64, fn Event) Timer {
	if fn == nil {
		return Timer{}
	}
	if t < k.now {
		t = k.now
	}
	item := k.newItem(t, seq, fn)
	k.queue.push(item)
	//lint:pooled Timer is a generation-fenced handle: every use revalidates item.gen, so a recycled entry is detected and ignored
	return Timer{k: k, item: item, gen: item.gen, at: t}
}

// After schedules fn to run d from now. Negative d behaves like zero.
func (k *Kernel) After(d time.Duration, fn Event) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// Post schedules fn to run d from now without handing out a cancellation
// handle. It is the allocation-free path for fire-and-forget events — with
// a warm item pool a Post costs zero heap allocations, which is what the
// medium's one-per-transmission delivery batches ride on. Negative d
// behaves like zero; nil fn is ignored.
func (k *Kernel) Post(d time.Duration, fn Event) {
	if fn == nil {
		return
	}
	t := k.now + d
	if d < 0 {
		t = k.now
	}
	k.queue.push(k.newItem(t, k.Reserve(), fn))
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event fired (false when nothing is scheduled or the
// kernel is stopped).
func (k *Kernel) Step() bool {
	if k.stopped {
		return false
	}
	item := k.head()
	if item == nil {
		return false
	}
	k.queue.pop()
	k.now = item.at
	if s := item.scope; s != nil {
		s.live--
	}
	k.processed++
	fn := item.fn
	// Recycle before running: fn may schedule new events, and a warm pool
	// lets them reuse this very item. Stale Timer handles are fenced off
	// by the generation bump.
	k.recycle(item)
	fn()
	return true
}

// head returns the earliest live item, leaving it queued. Dead items are
// reaped as they reach the front.
func (k *Kernel) head() *eventItem {
	for {
		item := k.queue.peek()
		if item == nil || !item.dead() {
			return item
		}
		k.queue.pop()
		k.cancelledQueued--
		k.recycle(item)
	}
}

// Run processes events until the queue drains or Stop is called. It returns
// ErrStopped if the kernel was stopped, nil otherwise.
func (k *Kernel) Run() error {
	for k.Step() {
	}
	if k.stopped {
		return ErrStopped
	}
	return nil
}

// RunUntil processes events with timestamps <= deadline. Events scheduled
// after the deadline remain queued. On return (without Stop), the clock is
// at min(deadline, time of last event) advanced to deadline so subsequent
// scheduling is relative to the deadline.
func (k *Kernel) RunUntil(deadline time.Duration) error {
	for !k.stopped {
		next, ok := k.peek()
		if !ok || next > deadline {
			break
		}
		k.Step()
	}
	if k.stopped {
		return ErrStopped
	}
	if k.now < deadline {
		k.now = deadline
	}
	return nil
}

// RunFor advances the simulation by d virtual time from the current clock.
func (k *Kernel) RunFor(d time.Duration) error {
	return k.RunUntil(k.now + d)
}

// Stop halts the current Run/RunUntil after the in-flight event completes.
// The kernel cannot be restarted; construct a new one per run.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

func (k *Kernel) peek() (time.Duration, bool) {
	item := k.head()
	if item == nil {
		return 0, false
	}
	return item.at, true
}

// compactMinCancelled is the floor below which cancelled items are left to
// be reaped lazily at pop time; compacting tiny queues isn't worth a pass.
const compactMinCancelled = 64

// noteCancelled records n newly dead queued items (cancelled one by one or
// through their scope). When the dead outnumber the live, compaction reaps
// every cancelled item in one pass; pop order is fully determined by the
// (at, seq) keys, so reaping early changes nothing observable but memory.
func (k *Kernel) noteCancelled(n int) {
	k.cancelledQueued += n
	if dead := k.cancelledQueued; dead >= compactMinCancelled && dead*2 > k.PendingRaw() {
		k.cancelledQueued -= k.queue.reap(k.recycle)
	}
}

// ExpDuration draws an exponentially distributed duration with the given
// rate (events per second). It is the standard inter-arrival draw for
// Poisson traffic sources. A non-positive rate yields a very large duration
// (effectively "never"), so callers can disable a source by passing 0.
func (k *Kernel) ExpDuration(ratePerSecond float64) time.Duration {
	if ratePerSecond <= 0 {
		return time.Duration(1<<62 - 1)
	}
	seconds := k.rng.ExpFloat64() / ratePerSecond
	d := time.Duration(seconds * float64(time.Second))
	if d < 0 { // overflow guard for absurd draws
		d = time.Duration(1<<62 - 1)
	}
	return d
}

// UniformDuration draws a duration uniformly from [0, max).
func (k *Kernel) UniformDuration(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(k.rng.Int63n(int64(max)))
}

// Seconds converts a float seconds value into a virtual-time duration.
func Seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// String describes the kernel state, for debugging.
func (k *Kernel) String() string {
	return fmt.Sprintf("sim.Kernel{now=%v pending=%d processed=%d stopped=%v}",
		k.now, k.PendingRaw(), k.processed, k.stopped)
}
