package sim

import "time"

// Lane is a FIFO of timers that all share one fixed delay. A timer armed on
// a lane fires at now+delay with a fresh sequence number; since the clock
// never runs backwards, every item appended to a lane is later by (at, seq)
// than every item already on it, so the lane is sorted by construction and
// arming is an append instead of a priority-queue insert.
//
// The kernel takes the earliest item across its queue and every lane head,
// so pop order — and therefore traces and event counts — is exactly what
// the same timers armed with After would give. Dead items are reaped where
// a single queue would reap them (see Kernel.head) and by the shared
// compaction, so even PendingRaw does not change.
//
// A lane suits a deadline armed in bulk with one delay and mostly cancelled
// before it fires: the watch buffer's forward timeout tau is the case it was
// built for. Get one with Kernel.Lane or Scope.Lane and arm it with
// AfterLane.
type Lane struct {
	d   time.Duration
	run itemRun
}

// Lane returns the kernel's lane for delay d, creating it on first use. All
// callers asking for the same delay share one lane. Negative d behaves like
// zero.
func (k *Kernel) Lane(d time.Duration) *Lane {
	if d < 0 {
		d = 0
	}
	for _, l := range k.lanes {
		if l.d == d {
			return l
		}
	}
	l := &Lane{d: d}
	k.lanes = append(k.lanes, l)
	return l
}

// AfterLane schedules fn the lane's delay from now, exactly like After
// with the delay the lane was created for. The lane must come from this kernel's Lane (or a
// Scope over it). Nil fn is ignored.
func (k *Kernel) AfterLane(l *Lane, fn Event) Timer {
	if fn == nil {
		return Timer{}
	}
	t := k.now + l.d
	item := k.newItem(t, fn)
	item.inLane = true
	// Sorted by construction: t and the new seq are the largest yet.
	l.run.items = append(l.run.items, item)
	//lint:pooled Timer is a generation-fenced handle: every use revalidates item.gen, so a recycled entry is detected and ignored
	return Timer{k: k, item: item, gen: item.gen, at: t}
}
