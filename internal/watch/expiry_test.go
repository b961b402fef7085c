package watch

import (
	"slices"
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/flatmap"
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
	k.At(time.Second-time.Nanosecond, func() { liveBefore = heardID(b, 3, key(1, 1)) })
	k.At(time.Second, func() {
		liveAt = heardID(b, 3, key(1, 1))
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
	expect(0, flatmap.ShortPage, true)
	check("one page of met records", flatmap.ShortPage, flatmap.ShortPage)
	expect(flatmap.ShortPage, flatmap.ShortPage+1, false)
	check("the next record", 1, flatmap.ShortPage)

	// Outstanding records are never freed: the sweep point doubles.
	expect(flatmap.ShortPage+1, flatmap.ShortPage+11, false)
	check("eleven waiting", 11, 2*flatmap.ShortPage)
	for i := uint64(flatmap.ShortPage); i < flatmap.ShortPage+11; i++ {
		b.RecordHeard(4, key(1, i))
	}
	k.RunFor(5 * time.Second)
	check("all met, long after", 11, 2*flatmap.ShortPage)
	expect(100, 105, false)
	check("five more", 16, 2*flatmap.ShortPage)
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
	b := New(k, fixture(k, Config{
		Timeout:    tau,
		DropFilter: func(field.NodeID, packet.Key) bool { return true },
	}), noAccuse, noThreshold)
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
			if s.rec(i).npend > 0 {
				out++
			}
		}
		peak = max(peak, out)
		if s.nrecs > 2*peak+flatmap.ShortPage {
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
		b.Index().Intern(id)
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

// TestMetDeadlineSlotReused: the slots of met deadlines are reused. A
// met deadline at the head leaves the queue at once (met ones behind a
// waiting head leave by the filter, see
// TestDeadlineQueueResolvesInArmingOrder). A page of expectations, each
// met by its forward as soon as it is armed, leaves the queue empty at a
// page boundary with that page spare, and the next deadline goes into the
// first one's slot. A met deadline never fires: only the last
// expectation's drop is accused, at its own deadline.
func TestMetDeadlineSlotReused(t *testing.T) {
	k := sim.New(1)
	const tau = time.Second
	b, acc, _ := newBuffer(k, Config{Timeout: tau})
	b.Expect(5, key(1, 0))
	first := b.deadlines.Front()
	b.RecordHeard(5, key(1, 0)) // met: its deadline is popped
	for i := uint64(1); i < flatmap.ShortPage; i++ {
		b.Expect(5, key(1, i))
		b.RecordHeard(5, key(1, i))
	}
	b.Expect(5, key(1, flatmap.ShortPage))
	if last := b.deadlines.Front(); first != last {
		t.Fatal("the deadline armed after a page of met ones did not reuse the first one's slot")
	}
	k.RunFor(10 * tau)
	if len(*acc) != 1 {
		t.Fatalf("%d accusations, want exactly 1 (the last expectation's drop)", len(*acc))
	}
	if a := (*acc)[0]; a.Key != key(1, flatmap.ShortPage) || a.At != tau {
		t.Fatalf("accusation for %v at %v, want the live expectation's key at %v", a.Key, a.At, tau)
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
	b := New(k, fixture(k, cfg), noAccuse, noThreshold)
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

// TestDeadlineQueueReleasesBurstPages arms a burst of 4x256 watch
// entries and lets every one expire: the drained queue and the log's
// spares then hold at most the guard's one spare page, so a traffic spike
// does not pin its high-water mark at every guard.
func TestDeadlineQueueReleasesBurstPages(t *testing.T) {
	k := sim.New(9)
	b, _, _ := newBuffer(k, Config{Timeout: time.Second})
	const burst = 4 * 256
	for i := 0; i < burst; i++ {
		b.Expect(5, key(1, uint64(i)))
	}
	if got := b.deadlines.Pages() * flatmap.ShortPage; got < burst {
		t.Fatalf("queue pages hold %d slots, fewer than the burst's %d entries", got, burst)
	}
	k.RunFor(time.Minute) // every watch expires
	if spare := b.cfg.Log.deadlineSpare.Len(); !b.deadlines.Empty() || b.deadlines.Pages()+spare > 1 {
		t.Fatalf("drained queue holds %d entries on %d pages, with %d spare; want one page in all",
			b.deadlines.Len(), b.deadlines.Pages(), spare)
	}
}

// TestDeadlineQueueResolvesInArmingOrder arms a burst of expectations
// and hears the forwards of all but every tenth, latest first and never
// the first one's, so the met entries pile up behind a waiting head.
// Once they pass the waiting ones twice over plus a page, the queue
// filters them out in place, and checkQueue holds it to that bound after
// every forward. A forward heard late still resolves its own entry, and
// the rest expire as drops at their deadlines, in arming order; the met
// entries never fire, and once the burst has drained the queue holds at
// most the page at its head, and the spares the guard's one page.
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
	if spare := b.cfg.Log.deadlineSpare.Len(); !b.deadlines.Empty() || b.deadlines.Pages() > 1 || spare > 1 {
		t.Fatalf("drained queue holds %d entries on %d pages, with %d spare", b.deadlines.Len(), b.deadlines.Pages(), spare)
	}
}

// TestDeadlineQueueBoundAfterExpiry: an expiry lowers the waiting count
// too, so a queue held exactly at its bound of twice the waiting entries
// plus a page must filter its met entries when its head drops, whether
// the drop is accused or filtered. The head and the entry behind it wait,
// fourteen met entries follow, and four more wait at the tail: twenty
// entries for six waiting ones.
func TestDeadlineQueueBoundAfterExpiry(t *testing.T) {
	for _, filtered := range []bool{false, true} {
		k := sim.New(1)
		const tau = time.Second
		cfg := Config{Timeout: tau}
		if filtered {
			cfg.DropFilter = func(field.NodeID, packet.Key) bool { return true }
		}
		b, acc, _ := newBuffer(k, cfg)
		b.Expect(5, key(1, 0))
		k.RunFor(time.Millisecond)
		for i := uint64(1); i < 20; i++ {
			b.Expect(5, key(1, i))
		}
		for i := uint64(2); i < 16; i++ {
			b.RecordHeard(5, key(1, i))
		}
		if q := b.deadlines.Len(); q != 2*b.Len()+flatmap.ShortPage {
			t.Fatalf("%d entries queued for %d waiting, want the bound", q, b.Len())
		}
		k.RunFor(tau - time.Millisecond/2) // only the head's deadline
		accused := 1
		if filtered {
			accused = 0
		}
		if b.Len() != 5 || len(*acc) != accused {
			t.Fatalf("filtered %v: %d waiting and %d accusations after the head's deadline", filtered, b.Len(), len(*acc))
		}
		checkQueue(t, b)
	}
}

// floodCycle is one warm-path step of a guard on a flood: a packet heard
// from six senders, and 300 ms of virtual time, enough for the deadlines
// of earlier steps to fire. With expect, the
// guard then asks for all twelve neighbors, as the detector does on a
// packet's first copy: the six senders are found on the log and cached,
// and the other six are armed. Each sender's repeat copy then asks for all
// twelve again, and one settled probe answers for all. It returns the next
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
			if b.SettledSet(kk) != 1<<12-1 {
				tb.Fatalf("repeat copy: settled %b, want all twelve", b.SettledSet(kk))
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
	b := New(k, fixture(k, cfg), noAccuse, noThreshold)
	for id := field.NodeID(0); id < 12; id++ {
		b.Index().Intern(id)
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
	b := New(k, fixture(k, Config{Timeout: time.Second}), noAccuse, noThreshold)
	s := b.store.(*logStore)
	for id := field.NodeID(0); id < 9; id++ {
		b.Index().Intern(id)
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
