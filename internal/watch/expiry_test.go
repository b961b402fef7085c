package watch

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// TestExpiryBoundaryConvention pins the single liveness convention for every
// expiring record: live strictly before the expiry instant, dead exactly at
// it. Readers (Heard/HeardAny, Expect's duplicate-forward check) and the
// wheel sweep must agree, so a record can never be dead to a reader yet
// immortal in the map or vice versa.
func TestExpiryBoundaryConvention(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond, CacheTTL: time.Second})
	b.RecordHeard(3, key(1, 1))

	var liveBefore, liveAt, anyAt, reExpectAt bool
	k.At(time.Second-time.Nanosecond, func() { liveBefore = b.Heard(3, key(1, 1)) })
	k.At(time.Second, func() {
		liveAt = b.Heard(3, key(1, 1))
		anyAt = b.HeardAny(key(1, 1))
		// The heard record is also the duplicate-forward suppression, so
		// at its expiry a new expectation must be accepted again.
		reExpectAt = b.Expect(3, key(1, 1))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !liveBefore {
		t.Fatal("record dead one instant before its expiry")
	}
	if liveAt || anyAt {
		t.Fatalf("record live at now == exp (Heard=%v HeardAny=%v); convention is now < exp", liveAt, anyAt)
	}
	if !reExpectAt {
		t.Fatal("duplicate-forward suppression still active at now == exp")
	}
}

// TestWheelReclaimsCaches: the two heard caches are emptied by the shared
// sweep — expiry is not just a reader-side illusion. Overheard forwards
// land in the same per-sender cache as any other transmission; there is no
// third table to reclaim.
func TestWheelReclaimsCaches(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond, CacheTTL: time.Second})
	for i := uint64(0); i < 50; i++ {
		b.RecordHeard(3, key(1, i))
		b.Expect(4, key(1, i))
		b.RecordHeard(4, key(1, i)) // the forward: satisfies the expectation
	}
	if h, a := b.store.cacheSizes(); h != 100 || a != 50 {
		t.Fatalf("cache sizes %d/%d before expiry, want 100/50", h, a)
	}
	if b.Len() != 0 || b.Stats().Matches != 50 {
		t.Fatalf("Len = %d, Matches = %d; want every expectation satisfied", b.Len(), b.Stats().Matches)
	}
	k.RunFor(5 * time.Second)
	if h, a := b.store.cacheSizes(); h != 0 || a != 0 {
		t.Fatalf("cache sizes %d/%d after expiry, want 0 each", h, a)
	}
}

// TestWheelReclaimsMalc: an accused node whose observations all age out of
// the window without firing the threshold is forgotten entirely; a fired
// record persists because ThresholdFired is a latch.
func TestWheelReclaimsMalc(t *testing.T) {
	k := sim.New(1)
	cfg := Config{Timeout: 100 * time.Millisecond, Threshold: 4, Window: 10 * time.Second}
	b, _, _ := newBuffer(k, cfg)
	b.AccuseFabrication(7, key(1, 1)) // +3, below threshold 4
	b.AccuseFabrication(8, key(1, 2)) // +3
	b.AccuseFabrication(8, key(1, 3)) // +3 -> 6, fires
	if !b.ThresholdFired(8) || b.ThresholdFired(7) {
		t.Fatal("threshold latch wrong before expiry")
	}
	k.RunFor(15 * time.Second)
	if aidx, ok := b.idx.Lookup(7); !ok {
		t.Fatal("accused node was never interned")
	} else if b.store.malc(aidx) != nil {
		t.Fatal("unfired MalC record not reclaimed after window")
	}
	if !b.ThresholdFired(8) {
		t.Fatal("fired MalC record lost its latch")
	}
	if b.MalC(8) != 0 {
		t.Fatalf("MalC(8) = %d after window, want 0", b.MalC(8))
	}
}

// TestSharedWheelConfig: a buffer handed an external wheel schedules its
// housekeeping through it instead of building a private one.
func TestSharedWheelConfig(t *testing.T) {
	k := sim.New(1)
	w := sim.NewWheel(k, time.Second)
	b := New(k, Config{Timeout: 100 * time.Millisecond, CacheTTL: time.Second, Wheel: w}, nil, nil)
	b.RecordHeard(3, key(1, 1))
	k.RunFor(5 * time.Second)
	if got := w.Stats().Records; got == 0 {
		t.Fatal("external wheel reaped nothing; buffer built a private wheel?")
	}
	if h, _ := b.store.cacheSizes(); h != 0 {
		t.Fatal("record not reclaimed through the shared wheel")
	}
}

// TestPendingEntryRecycled: watch entries come from the freelist once warm —
// satisfy-then-re-expect must reuse the same entry object, and a stale
// deadline for the old incarnation must not fire against the new one.
func TestPendingEntryRecycled(t *testing.T) {
	k := sim.New(1)
	b, acc, _ := newBuffer(k, Config{Timeout: time.Second, CacheTTL: 2 * time.Second})
	b.Expect(5, key(1, 1))
	first, _ := b.store.pendingGet(b.Intern(5), key(1, 1))
	b.RecordHeard(5, key(1, 1)) // satisfied: entry recycled
	k.RunFor(3 * time.Second)   // duplicate-forward suppression expires

	b.Expect(5, key(1, 2))
	second, _ := b.store.pendingGet(b.Intern(5), key(1, 2))
	if first != second {
		t.Fatal("freelist miss: satisfied entry was not reused")
	}
	k.RunFor(10 * time.Second)
	if len(*acc) != 1 {
		t.Fatalf("%d accusations, want exactly 1 (the second expectation's drop)", len(*acc))
	}
	if (*acc)[0].Key != key(1, 2) {
		t.Fatalf("accusation for %v, want the live expectation's key", (*acc)[0].Key)
	}
}

// TestRecordHeardAllocsWarm pins the per-overheard-frame cost: with a warm
// store and wheel, recording a recurring (sender, key) pair allocates
// nothing.
func TestRecordHeardAllocsWarm(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond, CacheTTL: time.Second})
	for i := uint64(0); i < 64; i++ {
		b.RecordHeard(3, key(1, i%8))
		k.RunFor(300 * time.Millisecond)
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		b.RecordHeard(3, key(1, i%8))
		i++
		k.RunFor(300 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("warm RecordHeard allocates %.1f objects/op, want 0", allocs)
	}
}

// TestExpectAllocsWarm pins the per-guarded-forwarder cost: entry from the
// freelist, prebound dispatch, no closure — no allocation. The DropFilter
// suppresses the expiry accusations so the pin measures the watch
// machinery, not the MalC bookkeeping.
func TestExpectAllocsWarm(t *testing.T) {
	k := sim.New(1)
	cfg := Config{
		Timeout:    100 * time.Millisecond,
		CacheTTL:   time.Second,
		DropFilter: func(field.NodeID, packet.Key) bool { return true },
	}
	b := New(k, cfg, nil, nil)
	for i := uint64(0); i < 64; i++ {
		b.Expect(5, key(1, i%8))
		k.RunFor(300 * time.Millisecond) // entry expires (filtered), recycles
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		b.Expect(5, key(1, i%8))
		i++
		k.RunFor(300 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("warm Expect allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFreePendingBounded churns far more watch entries through a buffer
// than the freelist cap and checks the retained freelist never exceeds it:
// a traffic spike must not pin its high-water mark in memory forever.
func TestFreePendingBounded(t *testing.T) {
	k := sim.New(9)
	b, _, _ := newBuffer(k, Config{Timeout: time.Second, CacheTTL: 2 * time.Second})
	for i := 0; i < 4*freePendingCap; i++ {
		b.Expect(5, key(1, uint64(i)))
	}
	k.RunFor(time.Minute) // every watch expires and recycles its entry
	if got := len(b.freePending); got > freePendingCap {
		t.Fatalf("freelist retains %d entries, cap is %d", got, freePendingCap)
	}
}

// floodCycle is one warm-path step of a guard on a flood: a packet heard
// from six senders, an expectation armed on six neighbors, and 300 ms of
// virtual time, enough for the wheel to sweep the records and deadlines
// of earlier steps. It returns the next key sequence number.
func floodCycle(k *sim.Kernel, b *Buffer, seq uint64, expect bool) uint64 {
	kk := key(1, seq)
	for s := int32(0); s < 6; s++ {
		b.RecordHeardIdx(s, kk)
	}
	if expect {
		for f := int32(6); f < 12; f++ {
			b.ExpectIdx(f, kk)
		}
	}
	k.RunFor(300 * time.Millisecond)
	return seq + 1
}

// warmFloodBuffer returns a buffer whose slab, key table, pending table,
// freelist and wheel have reached their steady state under floodCycle.
// The DropFilter suppresses expiry accusations so the pins measure the
// watch machinery, not MalC bookkeeping.
func warmFloodBuffer(expect bool) (*sim.Kernel, *Buffer, uint64) {
	k := sim.New(1)
	cfg := Config{
		Timeout:    100 * time.Millisecond,
		CacheTTL:   time.Second,
		DropFilter: func(field.NodeID, packet.Key) bool { return true },
	}
	b := New(k, cfg, nil, nil)
	for id := field.NodeID(0); id < 12; id++ {
		b.Intern(id)
	}
	seq := uint64(0)
	for range 64 {
		seq = floodCycle(k, b, seq, expect)
	}
	return k, b, seq
}

// TestRecordHeardIdxZeroAllocsWarm pins the per-overheard-frame cost:
// once the slab is warm, recording a packet's senders — a new packet
// record, a chained second chunk, the wheel arming and the sweeps that
// free earlier records — allocates nothing.
func TestRecordHeardIdxZeroAllocsWarm(t *testing.T) {
	k, b, seq := warmFloodBuffer(false)
	allocs := testing.AllocsPerRun(200, func() { seq = floodCycle(k, b, seq, false) })
	if allocs != 0 {
		t.Fatalf("warm RecordHeardIdx allocates %.1f objects per flood, want 0", allocs)
	}
}

// TestExpectIdxZeroAllocsWarm pins the per-guarded-forwarder cost: the
// heard check, the pending entry from the freelist, its lane deadline and
// its expiry allocate nothing once warm.
func TestExpectIdxZeroAllocsWarm(t *testing.T) {
	k, b, seq := warmFloodBuffer(true)
	allocs := testing.AllocsPerRun(200, func() { seq = floodCycle(k, b, seq, true) })
	if allocs != 0 {
		t.Fatalf("warm ExpectIdx allocates %.1f objects per flood, want 0", allocs)
	}
}

// TestSweepCachesZeroAllocsWarm pins the sweep on its own: each step frees
// one expired batch of packet records (chains returned to the free list,
// the last record moved into each hole) and records a new batch into the
// freed chunks, with nothing allocated.
func TestSweepCachesZeroAllocsWarm(t *testing.T) {
	s := newFlatStore()
	const lag = 8 // batches live at once
	batch := func(j int) {
		for p := uint64(0); p < 16; p++ {
			kk := key(field.NodeID(1+p), uint64(j))
			for sidx := int32(0); sidx < 9; sidx++ {
				s.recordHeard(sidx, kk, time.Duration(j+lag))
			}
		}
	}
	j := 0
	step := func() {
		batch(j + lag)
		if n := s.sweepCaches(time.Duration(j + lag)); n != 16*(9+1) {
			t.Fatalf("sweep at %d freed %d slots and records, want %d", j+lag, n, 16*10)
		}
		j++
	}
	for range lag {
		batch(j)
		j++
	}
	j = 0
	for range 64 {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("warm sweep allocates %.1f objects per step, want 0", allocs)
	}
}
