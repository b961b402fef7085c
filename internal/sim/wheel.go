package sim

import (
	"time"
)

// DefaultWheelGranularity is the sweep epoch width used when a component
// has to build its own wheel. One second is far coarser than any protocol
// deadline and far finer than the housekeeping TTLs that ride the wheel
// (watch caches ~5s, REQ suppression ~30s, MalC windows ~200s), so expired
// records linger at most one epoch — invisible to readers, which test a
// record's stored expiry, never its map presence.
const DefaultWheelGranularity = time.Second

// SweepFunc removes the records of one housekeeping cache that expired at
// or before now (the liveness convention is uniform: a record with expiry
// exp is live while now < exp). It returns the number of records removed,
// for the wheel's statistics. Sweeps must be pure housekeeping: no RNG
// draws, no packet sends, no observable protocol state change — that is
// the determinism argument for why sweep timing (and hence wheel
// granularity) cannot influence a run's trace.
type SweepFunc func(now time.Duration) int

// WheelStats counts wheel activity.
type WheelStats struct {
	Sweeps      uint64 // sweep events fired
	CacheSweeps uint64 // individual cache sweeps performed
	Records     uint64 // records reaped across all sweeps
}

// Wheel is a shared coarse-grained expiry wheel: the single timer source
// for pure-housekeeping TTLs. Components register one SweepFunc per cache
// and arm the wheel with each record's expiry instant; the wheel buckets
// those deadlines by epoch (expiry rounded up to the granularity) and runs
// one sweep event per due epoch — instead of one kernel event per record.
//
// Insert (Arm) is O(1) for the common case: it appends the cache to the
// expiry epoch's bucket (deduplicated per cache, since a cache with a fixed
// TTL arms epochs in non-decreasing order), finding the bucket at the tail
// of the sorted epoch list or by binary search when caches with several
// TTLs share the wheel, and only touches the kernel when the new epoch is
// earlier than the one already scheduled. The sweep is deterministic: due
// epochs are processed in ascending order and each epoch's caches in
// arming order, so two runs with the same seed sweep identically.
//
// Semantic deadlines — anything whose firing time is protocol-observable,
// like a guard's drop accusation at exactly tau — must NOT ride the wheel;
// they keep exact kernel timers. The wheel is only for records whose
// expiry is already enforced by readers checking the stored expiry, where
// deletion is a memory-reclamation detail.
//
// A wheel scheduled through a node's Scope dies with the node: CancelAll
// cancels the pending sweep, and the dead scope turns every rescheduling
// attempt into a no-op.
type Wheel struct {
	clock Clock
	k     *Kernel // underlying kernel, for the housekeeping event counter
	gran  time.Duration

	caches    []SweepFunc
	lastArmed []int64 // per cache: last epoch armed (dedup for monotone TTLs)

	epochs  []int64   // armed epochs, ascending
	buckets [][]int32 // parallel to epochs: cache indices, in arming order
	free    [][]int32 // recycled bucket slices

	timer   Timer  // pending sweep event
	next    int64  // epoch the pending sweep targets (valid while timer pending)
	sweep   Event  // prebound (*Wheel).doSweep, allocated once
	scratch []bool // per-sweep cache dedup, len == len(caches)

	stats WheelStats
}

// NewWheel returns a wheel sweeping on multiples of gran, scheduling
// through clock. A non-positive gran falls back to
// DefaultWheelGranularity. Node-owned components must pass their
// incarnation's *Scope, not the raw kernel, so a crash tears the sweep
// down with the rest of the stack (enforced by the scoped-timers lint).
func NewWheel(clock Clock, gran time.Duration) *Wheel {
	if gran <= 0 {
		gran = DefaultWheelGranularity
	}
	w := &Wheel{
		clock: clock,
		k:     kernelOf(clock),
		gran:  gran,
	}
	w.sweep = w.doSweep
	return w
}

// kernelOf unwraps the Clock implementations this package provides; an
// external Clock yields nil and the wheel simply skips the housekeeping
// event counter.
func kernelOf(c Clock) *Kernel {
	switch c := c.(type) {
	case *Kernel:
		return c
	case *Scope:
		return c.k
	}
	return nil
}

// Granularity returns the epoch width.
func (w *Wheel) Granularity() time.Duration { return w.gran }

// Stats returns a copy of the wheel counters.
func (w *Wheel) Stats() WheelStats { return w.stats }

// Register adds a housekeeping cache and returns the slot used to arm the
// wheel when the cache inserts or refreshes a record. Registration order
// is sweep order within an epoch, so it must be deterministic (it is: the
// component constructors run in deployment order).
func (w *Wheel) Register(sweep SweepFunc) WheelSlot {
	w.caches = append(w.caches, sweep)
	w.lastArmed = append(w.lastArmed, -1)
	w.scratch = append(w.scratch, false)
	return WheelSlot{w: w, id: int32(len(w.caches) - 1)}
}

// WheelSlot is a cache's handle on its wheel: a small value, free to copy
// and free to call. The zero slot is inert (Arm is a no-op), so structs
// can embed one before wiring.
type WheelSlot struct {
	w  *Wheel
	id int32
}

// Arm tells the wheel that the slot's cache holds a record expiring at the
// given instant. The cache will be swept at the first epoch boundary at or
// after expiry. Arming the same epoch twice is an O(1) no-op; arming with
// a warm wheel performs no heap allocation.
func (s WheelSlot) Arm(expiry time.Duration) {
	if s.w == nil {
		return
	}
	s.w.arm(s.id, expiry)
}

// epochFor buckets an expiry instant: the sweep at epoch e fires at time
// e*gran, and must satisfy every record with expiry <= e*gran (a record
// expiring exactly on the boundary is dead at the boundary, matching the
// reader-side convention that a record is live only while now < exp).
func (w *Wheel) epochFor(expiry time.Duration) int64 {
	return int64((expiry + w.gran - 1) / w.gran)
}

func (w *Wheel) arm(id int32, expiry time.Duration) {
	epoch := w.epochFor(expiry)
	if w.lastArmed[id] == epoch {
		return // this cache is already swept at that boundary
	}
	w.lastArmed[id] = epoch
	i := w.bucketFor(epoch)
	w.buckets[i] = append(w.buckets[i], id)
	// Schedule (or pull forward) the sweep event. Caches with different
	// TTLs share the wheel, so a short-TTL arm can land before the epoch
	// the pending sweep targets.
	if !w.timer.Pending() || epoch < w.next {
		w.timer.Cancel()
		w.next = epoch
		w.timer = w.clock.At(time.Duration(epoch)*w.gran, w.sweep)
	}
}

// bucketFor returns the index of epoch's bucket, inserting an empty one
// (from the free list when possible) so that w.epochs stays sorted
// ascending. Constant-TTL arming hits or appends at the tail; the binary
// search and shift only run for an out-of-order epoch from a shorter-TTL
// cache.
func (w *Wheel) bucketFor(epoch int64) int {
	n := len(w.epochs)
	i := n
	if n > 0 && w.epochs[n-1] >= epoch {
		lo, hi := 0, n-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if w.epochs[mid] < epoch {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if w.epochs[lo] == epoch {
			return lo
		}
		i = lo
	}
	var b []int32
	if f := len(w.free); f > 0 {
		b = w.free[f-1]
		w.free[f-1] = nil
		w.free = w.free[:f-1]
	}
	w.epochs = append(w.epochs, 0)
	w.buckets = append(w.buckets, nil)
	copy(w.epochs[i+1:], w.epochs[i:n])
	copy(w.buckets[i+1:], w.buckets[i:n])
	w.epochs[i] = epoch
	w.buckets[i] = b
	return i
}

// doSweep fires every due epoch's caches, in ascending epoch order and
// per-epoch arming order, each cache at most once per sweep event. It then
// reschedules for the earliest remaining epoch, if any.
func (w *Wheel) doSweep() {
	if w.k != nil {
		// This event is pure housekeeping; count it so the kernel can
		// report the housekeeping-vs-protocol event split.
		w.k.noteHousekeepingEvent()
	}
	now := w.clock.Now()
	w.stats.Sweeps++
	due := 0
	for due < len(w.epochs) && time.Duration(w.epochs[due])*w.gran <= now {
		due++
	}
	for i := 0; i < due; i++ {
		bucket := w.buckets[i]
		for _, id := range bucket {
			if w.scratch[id] {
				continue
			}
			w.scratch[id] = true
			w.stats.CacheSweeps++
			w.stats.Records += uint64(w.caches[id](now))
		}
		w.free = append(w.free, bucket[:0])
	}
	for i := range w.scratch {
		w.scratch[i] = false
	}
	left := copy(w.epochs, w.epochs[due:])
	copy(w.buckets, w.buckets[due:])
	for i := left; i < len(w.buckets); i++ {
		w.buckets[i] = nil // the free list owns the swept slices now
	}
	w.epochs, w.buckets = w.epochs[:left], w.buckets[:left]
	if len(w.epochs) > 0 {
		w.next = w.epochs[0]
		w.timer = w.clock.At(time.Duration(w.next)*w.gran, w.sweep)
	}
}
