package detector

import (
	"slices"
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
	"liteworp/internal/watch"
)

// guardAt builds a LITEWORP detector for host 1 whose direct neighbors are
// 2, 3 and 4, capturing every accusation, and returns it with its buffer
// and the host's table.
func guardAt(t *testing.T) (Detector, *watch.Buffer, *[]Accusation, *neighbor.Table) {
	t.Helper()
	table := neighbor.NewTable(1)
	for _, id := range []field.NodeID{2, 3, 4} {
		table.AddDirect(id)
	}
	var acc []Accusation
	k := sim.New(1)
	env := testEnv(k)
	env.Table = table
	env.OnAccusation = func(a Accusation) { acc = append(acc, a) }
	d, err := New(env, testConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	return d, d.(interface{ Buffer() *watch.Buffer }).Buffer(), &acc, table
}

// overhear feeds p to d as the engine does: with the sender's nbrIdx in
// table, where it is a direct neighbor.
func overhear(t testing.TB, d Detector, table *neighbor.Table, p *packet.Packet) {
	t.Helper()
	sidx, _, ok := table.Lookup(p.Sender)
	if !ok {
		t.Fatalf("sender %d is no neighbor of %d", p.Sender, table.Self())
	}
	d.Overheard(p, sidx)
}

// TestOverheardForwardSuppressesExpectation: the heard cache is the only
// record of who already forwarded a flood. After a REQ is overheard from
// neighbor 2, a later copy of it from neighbor 3 satisfies the expectation
// on 3 and arms nothing on 2 for that key.
func TestOverheardForwardSuppressesExpectation(t *testing.T) {
	d, b, acc, table := guardAt(t)
	req := &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 9, FinalDest: 50,
		Sender: 2, PrevHop: 9, Receiver: packet.Broadcast,
		Route: []field.NodeID{9},
	}
	overhear(t, d, table, req)
	if got := b.Stats().Expectations; got != 2 {
		t.Fatalf("REQ from 2 armed %d expectations, want 2 (on 3 and 4)", got)
	}

	copy3 := req.Clone()
	copy3.Sender = 3
	overhear(t, d, table, copy3)
	st := b.Stats()
	if st.Matches != 1 {
		t.Fatalf("copy from 3 satisfied %d expectations, want 1", st.Matches)
	}
	if st.Expectations != 2 || b.Len() != 1 {
		t.Fatalf("after copy from 3: %d expectations armed, %d pending; want 2 and 1 (only 4)",
			st.Expectations, b.Len())
	}
	if b.Expect(2, req.Key()) {
		t.Fatal("an expectation could be armed on 2, which was heard forwarding the REQ")
	}
	if len(*acc) != 0 {
		t.Fatalf("accusations = %v", *acc)
	}
}

// TestOwnSendNeitherSatisfiesNorSuppresses: the host's own transmissions
// are recorded under its own index, on which no expectation is ever armed.
// An own send therefore clears no pending expectation on a neighbor and
// keeps none from being armed; it only vouches for the packet in the
// fabrication check.
func TestOwnSendNeitherSatisfiesNorSuppresses(t *testing.T) {
	d, b, acc, table := guardAt(t)

	// A flood from 2 arms expectations on 3 and 4; the host then
	// rebroadcasts the same REQ itself.
	req := &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 9, FinalDest: 50,
		Sender: 2, PrevHop: 9, Receiver: packet.Broadcast,
		Route: []field.NodeID{9},
	}
	overhear(t, d, table, req)
	own := req.Clone()
	own.Sender, own.PrevHop = 1, 2
	d.OwnSend(own)
	if st := b.Stats(); st.Matches != 0 || b.Len() != 2 {
		t.Fatalf("own send satisfied %d expectations, %d pending; want 0 and 2", st.Matches, b.Len())
	}

	// The host originates a REQ, then overhears neighbor 2 forward it:
	// the own send must not suppress the expectations on 3 and 4.
	mine := &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 2, Origin: 1, FinalDest: 50,
		Sender: 1, PrevHop: 1, Receiver: packet.Broadcast,
	}
	d.OwnSend(mine)
	fwd := mine.Clone()
	fwd.Sender, fwd.PrevHop, fwd.Route = 2, 1, []field.NodeID{1}
	before := b.Stats().Expectations
	overhear(t, d, table, fwd)
	if got := b.Stats().Expectations - before; got != 2 {
		t.Fatalf("forward of the host's own REQ armed %d expectations, want 2 (on 3 and 4)", got)
	}
	// The forward claims the host as previous hop; the own-send record
	// is what keeps the guard from calling it a fabrication.
	if len(*acc) != 0 {
		t.Fatalf("accusations = %v", *acc)
	}
}

// BenchmarkOverheardFlood measures the guard hot path of §4.2.3: one
// guard with 12 neighbors hears one copy of each new REQ from every
// neighbor. The first copy arms expectations on the other eleven; each
// later copy resolves its sender's and finds every other neighbor
// already expected or heard. Each op also advances 50 ms of virtual time,
// so the heard cache sweeps at a steady size.
func BenchmarkOverheardFlood(b *testing.B) {
	const degree = 12
	table := neighbor.NewTable(1)
	copies := make([]*packet.Packet, degree)
	sidx := make([]int32, degree) // each sender's nbrIdx, as the engine resolves it
	for i := range copies {
		id := field.NodeID(2 + i)
		table.AddDirect(id)
		sidx[i], _, _ = table.Lookup(id)
		copies[i] = &packet.Packet{
			Type: packet.TypeRouteRequest, Origin: 100, FinalDest: 200,
			Sender: id, PrevHop: 100, Receiver: packet.Broadcast,
			Route: []field.NodeID{100},
		}
	}
	kernel := sim.New(1)
	env := testEnv(kernel)
	env.Table = table
	d, err := New(env, testConfig(kernel))
	if err != nil {
		b.Fatal(err)
	}
	flood := func(seq uint64) {
		for i, p := range copies {
			p.Seq = seq
			d.Overheard(p, sidx[i])
		}
		kernel.RunFor(50 * time.Millisecond)
	}
	seq := uint64(0)
	for ; seq < 256; seq++ {
		flood(seq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		flood(seq)
		seq++
	}
	b.StopTimer()
	// Every neighbor forwards every REQ, so no expectation may drop.
	if st := d.(interface{ Buffer() *watch.Buffer }).Buffer().Stats(); st.Drops != 0 || st.Matches == 0 {
		b.Fatalf("flood stats %+v: want matches and no drops", st)
	}
}

// BenchmarkOverheardBatch measures the shared path of one transmission:
// a new REQ from node 1 is delivered in one kernel event to its 12
// neighbors, all guards on one reception log, each of which neighbors
// the other 11. The first guard opens the log entry and the other eleven
// set their bits through the log's memo; each guard then arms an
// expectation on each of the other guards, whose drops the DropFilter
// suppresses. Each op also advances 50 ms of virtual time, so entries
// pop and expectations drop at a steady rate.
func BenchmarkOverheardBatch(b *testing.B) {
	const guards = 12
	kernel := sim.New(1)
	log := watch.NewLog(kernel)
	ids := make([]field.NodeID, guards)
	for i := range ids {
		ids[i] = field.NodeID(2 + i)
	}
	dets := make([]Detector, guards)
	sidx := make([]int32, guards) // node 1's nbrIdx at each guard
	for i, self := range ids {
		table := neighbor.NewTable(self)
		table.AddDirect(1)
		for _, id := range ids {
			if id != self {
				table.AddDirect(id)
			}
		}
		cfg := testConfig(kernel)
		cfg.Watch.Log = log
		env := testEnv(kernel)
		env.Table = table
		env.DropFilter = func(field.NodeID, packet.Key) bool { return true }
		d, err := New(env, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dets[i] = d
		sidx[i], _, _ = table.Lookup(1)
	}
	p := &packet.Packet{
		Type: packet.TypeRouteRequest, Origin: 100, FinalDest: 200,
		Sender: 1, PrevHop: 100, Receiver: packet.Broadcast,
		Route: []field.NodeID{100, 1},
	}
	deliver := func() {
		for i, d := range dets {
			d.Overheard(p, sidx[i])
		}
	}
	op := func() {
		p.Seq++
		kernel.Post(0, deliver)
		kernel.RunFor(50 * time.Millisecond)
	}
	for range 256 {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		op()
	}
	b.StopTimer()
	st := dets[0].(interface{ Buffer() *watch.Buffer }).Buffer().Stats()
	if st.Expectations == 0 || st.FilteredDrops == 0 || st.Drops != 0 {
		b.Fatalf("guard stats %+v: want expectations, filtered drops and no accusations", st)
	}
}

// TestREQArmsMaskAndWideForwardersInNeighborOrder: a guard whose
// neighbors' indexes straddle the watch records' masks (an announced
// second-hop neighborhood interned between them) arms a REQ's forwarders
// in ascending neighbor order whichever path answers each, so their
// deadlines fire, and the drops are accused, in that order. A repeat copy
// re-arms none of them: the masked one is skipped by the settled probe,
// the wide ones by ExpectIdx's own check.
func TestREQArmsMaskAndWideForwardersInNeighborOrder(t *testing.T) {
	table := neighbor.NewTable(1)
	table.AddDirect(10)
	table.AddDirect(30)
	var filler []field.NodeID
	for id := field.NodeID(1000); id < 1040; id++ {
		filler = append(filler, id)
	}
	table.SetNeighborSet(10, filler)
	table.AddDirect(20)
	table.AddDirect(40)
	for id, wide := range map[field.NodeID]bool{10: false, 20: true, 30: false, 40: true} {
		if i, _, _ := table.Lookup(id); (i >= 32) != wide {
			t.Fatalf("neighbor %d at index %d; past the 32-bit masks should be %v", id, i, wide)
		}
	}
	var acc []Accusation
	k := sim.New(1)
	env := testEnv(k)
	env.Table = table
	env.OnAccusation = func(a Accusation) { acc = append(acc, a) }
	d, err := New(env, testConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	b := d.(interface{ Buffer() *watch.Buffer }).Buffer()
	req := &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 99, FinalDest: 98,
		Sender: 10, PrevHop: 99, Receiver: packet.Broadcast,
		Route: []field.NodeID{99},
	}
	overhear(t, d, table, req)
	if got := b.Stats().Expectations; got != 3 {
		t.Fatalf("first copy armed %d expectations, want 3 (20, 30, 40)", got)
	}
	overhear(t, d, table, req.Clone())
	if got := b.Stats().Expectations; got != 3 {
		t.Fatalf("repeat copy re-armed: %d expectations, want 3", got)
	}
	k.RunFor(time.Second)
	var order []field.NodeID
	for _, a := range acc {
		if a.Reason != watch.ReasonDrop {
			t.Fatalf("unexpected accusation %+v", a)
		}
		order = append(order, a.Accused)
	}
	if !slices.Equal(order, []field.NodeID{20, 30, 40}) {
		t.Fatalf("drops accused in order %v, want [20 30 40]", order)
	}
}

// TestFabricationGuardRule pins which forwarded frames the fabrication
// check judges: those whose claimed link PrevHop->Sender the host guards,
// which is when PrevHop is the host itself or a direct neighbor, revoked
// or stale included (topology knowledge survives both). An unknown
// PrevHop, or one the host knows only as a second-hop neighbor, is on a
// link it cannot watch. Nothing was heard, so every judged frame is a
// fabrication.
func TestFabricationGuardRule(t *testing.T) {
	cases := []struct {
		name  string
		prev  field.NodeID
		judge bool
	}{
		{"active neighbor", 3, true},
		{"the host itself", 1, true},
		{"revoked neighbor", 4, true},
		{"stale neighbor", 5, true},
		{"second-hop only", 7, false},
		{"stranger", 9, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, b, acc, table := guardAt(t)
			table.AddDirect(5)
			table.SetNeighborSet(2, []field.NodeID{1, 3, 7})
			table.Revoke(4)
			table.MarkStale(5)
			fwd := &packet.Packet{
				Type: packet.TypeRouteRequest, Seq: 1, Origin: 50, FinalDest: 60,
				Sender: 2, PrevHop: tc.prev, Receiver: packet.Broadcast,
				Route: []field.NodeID{50, tc.prev},
			}
			overhear(t, d, table, fwd)
			if got := b.Stats().Fabrications == 1; got != tc.judge {
				t.Fatalf("fabrication accused %v, want %v (accusations %v)", got, tc.judge, *acc)
			}
		})
	}
}
