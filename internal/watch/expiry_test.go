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
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond})
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

// TestWheelReclaimsCaches: the guard's packet records are emptied by the
// shared sweep once no expectation is outstanding on them, and the log
// pops its expired entries as it records new ones — expiry is not just a
// reader-side illusion. Overheard forwards land on the log like any other
// transmission; there is no third table to reclaim.
func TestWheelReclaimsCaches(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond})
	s := b.store.(*logStore)
	for i := uint64(0); i < 50; i++ {
		b.RecordHeard(3, key(1, i))
		b.Expect(4, key(1, i))
		b.RecordHeard(4, key(1, i)) // the forward: satisfies the expectation
	}
	if s.nrecs != 50 || s.log.entries() != 100 {
		t.Fatalf("%d records, %d log entries before expiry, want 50 and 100", s.nrecs, s.log.entries())
	}
	if b.Len() != 0 || b.Stats().Matches != 50 {
		t.Fatalf("Len = %d, Matches = %d; want every expectation satisfied", b.Len(), b.Stats().Matches)
	}
	k.RunFor(5 * time.Second)
	b.RecordHeard(3, key(2, 0))
	if s.nrecs != 0 || s.keys.Len() != 0 || s.log.entries() != 1 {
		t.Fatalf("%d records, %d keys, %d log entries after expiry, want 0, 0 and 1", s.nrecs, s.keys.Len(), s.log.entries())
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
	} else if b.malc(aidx) != nil {
		t.Fatal("unfired MalC record not reclaimed after window")
	}
	if !b.ThresholdFired(8) {
		t.Fatal("fired MalC record lost its latch")
	}
	if b.MalC(8) != 0 {
		t.Fatalf("MalC(8) = %d after window, want 0", b.MalC(8))
	}
}

// TestMalcRecordPerAccusedNode: a guard keeps one MalC record per node
// it accused, however high the node's nbrIdx, in first-accused order; the
// sweep drops an unfired record past the window and keeps a fired one.
func TestMalcRecordPerAccusedNode(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond, Threshold: 4, Window: 10 * time.Second})
	for id := field.NodeID(0); id < 40; id++ {
		b.Intern(id)
	}
	b.AccuseFabrication(39, key(1, 1)) // +3, below threshold 4
	if len(b.malcs) != 1 || b.malcs[0].aidx != 39 {
		t.Fatalf("one accusation of nbrIdx 39 left %d MalC records", len(b.malcs))
	}
	b.AccuseFabrication(21, key(1, 2))
	b.AccuseFabrication(21, key(1, 3)) // 6: fires
	b.AccuseFabrication(39, key(1, 4)) // 6: fires
	b.AccuseFabrication(30, key(1, 5)) // unfired
	if len(b.malcs) != 3 || b.malcs[0].aidx != 39 || b.malcs[1].aidx != 21 || b.malcs[2].aidx != 30 {
		t.Fatalf("MalC records %+v, want 39, 21 and 30 in first-accused order", b.malcs)
	}
	k.RunFor(15 * time.Second)
	if len(b.malcs) != 2 || b.malcs[0].aidx != 39 || b.malcs[1].aidx != 21 {
		t.Fatalf("after the window: records %+v, want the fired 39 and 21", b.malcs)
	}
	if !b.ThresholdFired(39) || !b.ThresholdFired(21) || b.ThresholdFired(30) || b.MalC(30) != 0 {
		t.Fatal("the sweep changed an answer")
	}
}

// TestSharedWheelConfig: a buffer handed an external wheel schedules its
// housekeeping through it instead of building a private one.
func TestSharedWheelConfig(t *testing.T) {
	k := sim.New(1)
	w := sim.NewWheel(k, time.Second)
	b := New(k, Config{Timeout: 100 * time.Millisecond, Wheel: w}, nil, nil)
	b.Expect(4, key(1, 1))
	b.RecordHeard(4, key(1, 1))
	k.RunFor(5 * time.Second)
	if got := w.Stats().Records; got == 0 {
		t.Fatal("external wheel reaped nothing; buffer built a private wheel?")
	}
	if s := b.store.(*logStore); s.nrecs != 0 {
		t.Fatal("record not reclaimed through the shared wheel")
	}
}

// TestPendingEntryRecycled: a warm expect/satisfy/re-expect cycle reuses
// the deadline queue's storage, and a satisfied deadline never fires — only
// the re-armed expectation's drop is accused, at its own deadline.
func TestPendingEntryRecycled(t *testing.T) {
	k := sim.New(1)
	const tau = time.Second
	b, acc, _ := newBuffer(k, Config{Timeout: tau})
	b.Expect(5, key(1, 1))
	first := b.deadlines.first()
	b.RecordHeard(5, key(1, 1)) // satisfied: its deadline is popped
	k.RunFor(11 * tau)          // duplicate-forward suppression expires

	b.Expect(5, key(1, 2))
	if second := b.deadlines.first(); first != second {
		t.Fatal("the re-armed deadline did not reuse the satisfied one's slot")
	}
	k.RunFor(10 * tau)
	if len(*acc) != 1 {
		t.Fatalf("%d accusations, want exactly 1 (the second expectation's drop)", len(*acc))
	}
	if a := (*acc)[0]; a.Key != key(1, 2) || a.At != 12*tau {
		t.Fatalf("accusation for %v at %v, want the live expectation's key at %v", a.Key, a.At, 12*tau)
	}
}

// TestRecordHeardAllocsWarm pins the per-overheard-frame cost: with a warm
// store and wheel, recording a recurring (sender, key) pair and asking
// whether anyone was heard sending it allocates nothing.
func TestRecordHeardAllocsWarm(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond})
	for i := uint64(0); i < 64; i++ {
		b.RecordHeard(3, key(1, i%8))
		k.RunFor(300 * time.Millisecond)
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		b.RecordHeard(3, key(1, i%8))
		if !b.HeardAny(key(1, i%8)) {
			t.Fatal("a packet just heard is not heard")
		}
		i++
		k.RunFor(300 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("warm RecordHeard allocates %.1f objects/op, want 0", allocs)
	}
}

// TestExpectAllocsWarm pins the per-guarded-forwarder cost: the deadline
// goes into the queue's storage, the buffer's one timer dispatches to its
// prebound expire, no closure — no allocation. The DropFilter
// suppresses the expiry accusations so the pin measures the watch
// machinery, not the MalC bookkeeping.
func TestExpectAllocsWarm(t *testing.T) {
	k := sim.New(1)
	cfg := Config{
		Timeout:    100 * time.Millisecond,
		DropFilter: func(field.NodeID, packet.Key) bool { return true },
	}
	b := New(k, cfg, nil, nil)
	for i := uint64(0); i < 64; i++ {
		b.Expect(5, key(1, i%8))
		k.RunFor(300 * time.Millisecond) // entry expires (filtered)
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

// TestFreePendingBounded arms a burst of 4x256 watch entries and lets
// every one expire: the deadline queue then gives the burst's capacity
// back, so a traffic spike does not pin its high-water mark at every guard.
func TestFreePendingBounded(t *testing.T) {
	k := sim.New(9)
	b, _, _ := newBuffer(k, Config{Timeout: time.Second})
	const burst = 4 * 256
	for i := 0; i < burst; i++ {
		b.Expect(5, key(1, uint64(i)))
	}
	if got := cap(b.deadlines.items); got < burst {
		t.Fatalf("queue capacity %d holds fewer than the burst's %d entries", got, burst)
	}
	k.RunFor(time.Minute) // every watch expires
	if got, limit := cap(b.deadlines.items), queueShrinkFactor*queueSeedCap; got > limit {
		t.Fatalf("queue retains capacity %d after the burst drained, limit %d", got, limit)
	}
}

// TestDeadlineQueueResolvesInArmingOrder arms a burst of expectations
// and hears the forwards of all but every tenth, latest first and never
// the first one's, so the met entries stay queued behind a waiting head.
// A forward heard late still resolves its own entry, and the rest expire
// as drops at their deadlines, in arming order; the met entries never
// fire, and once the burst has drained the queue gives its capacity back.
func TestDeadlineQueueResolvesInArmingOrder(t *testing.T) {
	k := sim.New(3)
	b, acc, _ := newBuffer(k, Config{Timeout: time.Second})
	const burst = 400
	fwd := func(i int) field.NodeID { return field.NodeID(5 + i%3) }
	for i := 0; i < burst; i++ {
		if !b.Expect(fwd(i), key(1, uint64(i))) {
			t.Fatalf("expectation %d not armed", i)
		}
		k.RunFor(time.Millisecond)
	}
	for i := burst - 1; i >= 0; i-- {
		if i%10 != 0 && !b.RecordHeard(fwd(i), key(1, uint64(i))) {
			t.Fatalf("forward %d met no expectation", i)
		}
		checkQueue(t, b)
	}
	if !b.RecordHeard(fwd(10), key(1, 10)) {
		t.Fatal("late forward 10 met no expectation")
	}
	checkQueue(t, b)
	k.RunFor(time.Minute)
	var want []int
	for i := 0; i < burst; i += 10 {
		if i != 10 {
			want = append(want, i)
		}
	}
	if len(*acc) != len(want) {
		t.Fatalf("%d drop accusations, want %d", len(*acc), len(want))
	}
	for j, i := range want {
		a := (*acc)[j]
		if a.Reason != ReasonDrop || a.Accused != fwd(i) || a.Key != key(1, uint64(i)) ||
			a.At != time.Duration(i)*time.Millisecond+time.Second {
			t.Fatalf("accusation %d = %+v, want a drop by %d of %v at %v", j, a, fwd(i), key(1, uint64(i)),
				time.Duration(i)*time.Millisecond+time.Second)
		}
	}
	if !b.deadlines.empty() || cap(b.deadlines.items) > queueShrinkFactor*queueSeedCap {
		t.Fatalf("drained queue holds %d entries in %d slots", len(b.deadlines.items)-b.deadlines.head, cap(b.deadlines.items))
	}
}

// floodCycle is one warm-path step of a guard on a flood: a packet heard
// from six senders, and 300 ms of virtual time, enough for the wheel to
// sweep the records and deadlines of earlier steps. With expect, the
// guard then asks for all twelve neighbors, as the detector does on a
// packet's first copy: the six senders are found on the log and cached,
// and the other six are armed. Each sender's repeat copy then asks for all
// twelve again, and every one is answered by Settled. It returns the next
// key sequence number.
func floodCycle(tb testing.TB, k *sim.Kernel, b *Buffer, seq uint64, expect bool) uint64 {
	kk := key(1, seq)
	for s := int32(0); s < 6; s++ {
		b.RecordHeardIdx(s, kk)
	}
	if expect {
		for f := int32(0); f < 12; f++ {
			if b.ExpectIdx(f, kk) != (f >= 6) {
				tb.Fatalf("first copy: neighbor %d armed wrongly", f)
			}
		}
		for s := int32(0); s < 6; s++ {
			b.RecordHeardIdx(s, kk)
			for f := int32(0); f < 12; f++ {
				if !b.Settled(f, kk) || b.ExpectIdx(f, kk) {
					tb.Fatalf("repeat copy: neighbor %d unsettled or re-armed", f)
				}
			}
		}
	}
	k.RunFor(300 * time.Millisecond)
	return seq + 1
}

// warmFloodBuffer returns a buffer whose log, records, key table,
// deadline queue and wheel have reached their steady state under
// floodCycle.
// The DropFilter suppresses expiry accusations so the pins measure the
// watch machinery, not MalC bookkeeping.
func warmFloodBuffer(tb testing.TB, expect bool) (*sim.Kernel, *Buffer, uint64) {
	k := sim.New(1)
	cfg := Config{
		Timeout:    100 * time.Millisecond,
		DropFilter: func(field.NodeID, packet.Key) bool { return true },
	}
	b := New(k, cfg, nil, nil)
	for id := field.NodeID(0); id < 12; id++ {
		b.Intern(id)
	}
	seq := uint64(0)
	for range 64 {
		seq = floodCycle(tb, k, b, seq, expect)
	}
	return k, b, seq
}

// TestRecordHeardIdxZeroAllocsWarm pins the per-overheard-frame cost:
// once the log is warm, recording a packet's senders — a log entry per
// transmission, its index slot, the wheel arming and the pops that
// free earlier records — allocates nothing.
func TestRecordHeardIdxZeroAllocsWarm(t *testing.T) {
	k, b, seq := warmFloodBuffer(t, false)
	allocs := testing.AllocsPerRun(200, func() { seq = floodCycle(t, k, b, seq, false) })
	if allocs != 0 {
		t.Fatalf("warm RecordHeardIdx allocates %.1f objects per flood, want 0", allocs)
	}
}

// TestExpectIdxZeroAllocsWarm pins the per-guarded-forwarder cost: the
// heard and duplicate check on the packet's record, the deadline in the
// queue, the timer armed for it and its expiry, and the repeat copies'
// settled answers allocate nothing once warm.
func TestExpectIdxZeroAllocsWarm(t *testing.T) {
	k, b, seq := warmFloodBuffer(t, true)
	allocs := testing.AllocsPerRun(200, func() { seq = floodCycle(t, k, b, seq, true) })
	if allocs != 0 {
		t.Fatalf("warm ExpectIdx allocates %.1f objects per flood, want 0", allocs)
	}
}

// TestSweepCachesZeroAllocsWarm pins the sweep: each step arms nine
// expectations on each of 16 new packets, meets those armed eight steps
// (800 ms, within tau) before, and sweeps, which frees their 16 records
// (the last record moved into each hole), with nothing allocated once the
// pages, the key table, the deadline queue and the log, which holds ten
// tau of transmissions, are warm.
func TestSweepCachesZeroAllocsWarm(t *testing.T) {
	k := sim.New(1)
	b := New(k, Config{Timeout: time.Second}, nil, nil)
	s := b.store.(*logStore)
	for id := field.NodeID(0); id < 9; id++ {
		b.Intern(id)
	}
	const lag = 8 // steps an expectation stays outstanding
	j := uint64(0)
	step := func() {
		for p := uint64(0); p < 16; p++ {
			for f := int32(0); f < 9; f++ {
				b.ExpectIdx(f, key(field.NodeID(1+p), j+lag))
				b.RecordHeardIdx(f, key(field.NodeID(1+p), j))
			}
		}
		k.RunFor(100 * time.Millisecond) // the log pops what has expired
		s.sweepCaches(k.Now())
		if s.nrecs != 16*lag {
			t.Fatalf("after sweep %d: %d records, want %d", j, s.nrecs, 16*lag)
		}
		j++
	}
	for p := uint64(0); p < 16; p++ {
		for i := uint64(0); i < lag; i++ {
			for f := int32(0); f < 9; f++ {
				b.ExpectIdx(f, key(field.NodeID(1+p), i))
			}
		}
	}
	for range 128 {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("warm sweep allocates %.1f objects per step, want 0", allocs)
	}
}
