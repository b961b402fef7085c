package watch

import (
	"slices"
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// TestExpiryBoundaryConvention pins the single liveness convention for every
// expiring record: live strictly before the expiry instant, dead exactly at
// it. Readers (Heard/HeardAny, Expect's duplicate-forward check) must
// agree.
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

// TestRecordsReclaimedAtCountTrigger: with no timer, a guard's packet
// records stay until it is about to create a record with its record count
// at the sweep point: one page at first, then twice the records left by
// the last sweep. The sweep frees exactly the records with no expectation
// outstanding.
func TestRecordsReclaimedAtCountTrigger(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond})
	s := b.store.(*logStore)
	expect := func(from, to uint64, met bool) {
		for i := from; i < to; i++ {
			b.Expect(4, key(1, i))
			if met {
				b.RecordHeard(4, key(1, i)) // the forward
			}
		}
	}
	check := func(when string, nrecs, sweepAt int32) {
		t.Helper()
		if s.nrecs != nrecs || s.sweepAt != sweepAt || s.keys.Len() != int(nrecs) {
			t.Fatalf("%s: %d records (%d keys), sweep at %d; want %d, sweep at %d",
				when, s.nrecs, s.keys.Len(), s.sweepAt, nrecs, sweepAt)
		}
	}
	expect(0, pageSize, true)
	check("one page of met records", pageSize, pageSize)
	expect(pageSize, pageSize+1, false)
	check("the next record", 1, pageSize)

	// Outstanding records are never freed: the sweep point doubles.
	expect(pageSize+1, pageSize+11, false)
	check("eleven waiting", 11, 2*pageSize)
	for i := uint64(pageSize); i < pageSize+11; i++ {
		b.RecordHeard(4, key(1, i))
	}
	k.RunFor(5 * time.Second)
	check("all met, long after", 11, 2*pageSize)
	expect(100, 105, false)
	check("five more", 16, 2*pageSize)
	expect(105, 106, false)
	check("past the sweep point", 6, 10)
	for i := uint64(100); i < 106; i++ {
		if !b.RecordHeard(4, key(1, i)) {
			t.Fatalf("forward of %d met nothing after the sweep moved its record", i)
		}
	}
}

// TestGuardRecordsBounded: a guard that arms expectations on four new
// packets every 10 ms for 100 tau, hears half of the forwards 50 ms later
// and lets the rest drop, holds at most twice its outstanding records
// plus one page, with no timer reclaiming them.
func TestGuardRecordsBounded(t *testing.T) {
	k := sim.New(1)
	const tau = 100 * time.Millisecond
	b := New(k, Config{
		Timeout:    tau,
		DropFilter: func(field.NodeID, packet.Key) bool { return true },
	}, nil, nil)
	s := b.store.(*logStore)
	peak := int32(0) // most outstanding records so far
	for step := uint64(0); step < 1000; step++ {
		for p := uint64(0); p < 4; p++ {
			b.Expect(5, key(1, 4*step+p))
			b.Expect(6, key(1, 4*step+p))
			if step >= 5 {
				b.RecordHeard(5, key(1, 4*(step-5)+p))
			}
		}
		k.RunFor(10 * time.Millisecond)
		out := int32(0)
		for i := int32(0); i < s.nrecs; i++ {
			if s.recs.at(i).npend > 0 {
				out++
			}
		}
		peak = max(peak, out)
		if s.nrecs > 2*peak+pageSize {
			t.Fatalf("step %d: %d records, %d outstanding (peak %d)", step, s.nrecs, out, peak)
		}
	}
	if peak < 36 || b.Stats().Expectations != 8000 {
		t.Fatalf("peak %d outstanding records over %d expectations: the guard never filled", peak, b.Stats().Expectations)
	}
}

// TestMalcReclaimedAtNewAccusation: with no timer, an accused node whose
// observations have all aged out of the window without firing the
// threshold keeps its record, which answers as none would, until the
// guard accuses a node it holds no record for. That accusation drops it,
// but not a record whose newest observation is exactly Window old, which
// windowedValue still counts; a fired record persists because
// ThresholdFired is a latch.
func TestMalcReclaimedAtNewAccusation(t *testing.T) {
	k := sim.New(1)
	const window = 10 * time.Second
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond, Threshold: 4, Window: window})
	accused := func() []field.NodeID {
		var ids []field.NodeID
		for _, rec := range b.malcs {
			ids = append(ids, b.idx.ID(rec.aidx))
		}
		return ids
	}
	b.AccuseFabrication(7, key(1, 1)) // +3, below threshold 4
	b.AccuseFabrication(8, key(1, 2)) // +3
	b.AccuseFabrication(8, key(1, 3)) // +3 -> 6, fires
	k.RunFor(window)
	b.AccuseFabrication(9, key(1, 4)) // 7's observation is exactly Window old
	if got := accused(); !slices.Equal(got, []field.NodeID{7, 8, 9}) || b.MalC(7) != 3 {
		t.Fatalf("at the window's edge: records for %v, MalC(7) = %d; want [7 8 9] and 3", got, b.MalC(7))
	}
	k.RunFor(time.Nanosecond)
	if got := accused(); !slices.Equal(got, []field.NodeID{7, 8, 9}) || b.MalC(7) != 0 || b.ThresholdFired(7) {
		t.Fatalf("past the window: records for %v; want [7 8 9] until the next new accusation, answering as none", got)
	}
	b.AccuseFabrication(9, key(1, 5)) // a node already on record: no sweep
	if got := accused(); !slices.Equal(got, []field.NodeID{7, 8, 9}) {
		t.Fatalf("records for %v after re-accusing 9, want [7 8 9]", got)
	}
	b.AccuseFabrication(10, key(1, 6))
	if got := accused(); !slices.Equal(got, []field.NodeID{8, 9, 10}) {
		t.Fatalf("records for %v after accusing 10, want [8 9 10]", got)
	}
	if !b.ThresholdFired(8) || b.MalC(8) != 0 {
		t.Fatalf("fired record: latch %v, MalC %d after window; want true and 0", b.ThresholdFired(8), b.MalC(8))
	}
	b.AccuseFabrication(7, key(1, 7))
	if got := accused(); !slices.Equal(got, []field.NodeID{8, 9, 10, 7}) || b.MalC(7) != 3 {
		t.Fatalf("re-accused 7: records for %v, MalC(7) = %d; want [8 9 10 7] and 3", got, b.MalC(7))
	}
}

// TestMalcRecordPerAccusedNode: a guard keeps one MalC record per node
// it accused, however high the node's nbrIdx, in first-accused order; a
// new accusation past the window drops an unfired record and keeps the
// fired ones in order.
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
	b.AccuseFabrication(5, key(1, 6))
	if len(b.malcs) != 3 || b.malcs[0].aidx != 39 || b.malcs[1].aidx != 21 || b.malcs[2].aidx != 5 {
		t.Fatalf("after the window: records %+v, want the fired 39 and 21, then 5", b.malcs)
	}
	if !b.ThresholdFired(39) || !b.ThresholdFired(21) || b.ThresholdFired(30) || b.MalC(30) != 0 {
		t.Fatal("the sweep changed an answer")
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
// store, recording a recurring (sender, key) pair and asking
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
// from six senders, and 300 ms of virtual time, enough for the deadlines
// of earlier steps to fire. With expect, the
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
// and deadline queue have reached their steady state under
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
// transmission, its index slot and the pops that free earlier entries —
// allocates nothing.
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
		s.sweepCaches()
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
