package neighbor

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/keys"
	"liteworp/internal/medium"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// dynamicHarness wires an established 3-node chain with Dynamic discovery,
// runs initial discovery, then adds a joiner near node 1.
func dynamicHarness(t *testing.T) (*sim.Kernel, *field.Field, *medium.Medium, map[field.NodeID]*Table, map[field.NodeID]*Discovery) {
	t.Helper()
	k := sim.New(9)
	f := chain(t, 3)
	med := medium.New(k, f, medium.Config{BandwidthBps: 250_000})
	ks := keys.NewKeyServer(99)
	tables := map[field.NodeID]*Table{}
	discos := map[field.NodeID]*Discovery{}
	for _, id := range f.IDs() {
		id := id
		tb := NewTable(id)
		d := NewDiscovery(k, keys.NewRing(id, ks), tb, med.Broadcast, true)
		tables[id] = tb
		discos[id] = d
		if err := med.Attach(id, func(p *packet.Packet) { d.Handle(p) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range discos {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.RunUntil(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Joiner appears next to node 1.
	if err := f.Place(50, field.Point{X: 25, Y: 5}); err != nil {
		t.Fatal(err)
	}
	tb := NewTable(50)
	d := NewDiscovery(k, keys.NewRing(50, ks), tb, med.Broadcast, true)
	tables[50] = tb
	discos[50] = d
	if err := med.Attach(50, func(p *packet.Packet) { d.Handle(p) }); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(12 * time.Second); err != nil {
		t.Fatal(err)
	}
	return k, f, med, tables, discos
}

func TestDynamicJoinMutualAdoption(t *testing.T) {
	_, f, _, tables, _ := dynamicHarness(t)
	joiner := tables[50]
	truth := f.Neighbors(50)
	got := joiner.Neighbors()
	if len(got) != len(truth) {
		t.Fatalf("joiner neighbors = %v, truth %v", got, truth)
	}
	for _, nb := range truth {
		if !tables[nb].IsNeighbor(50) {
			t.Fatalf("established node %d did not adopt joiner", nb)
		}
		// Second-hop info both ways.
		if tables[50].NeighborsOf(nb) == nil {
			t.Fatalf("joiner missing %d's list", nb)
		}
		if tables[nb].NeighborsOf(50) == nil {
			t.Fatalf("node %d missing joiner's list", nb)
		}
	}
}

func TestDynamicJoinReannouncementPropagates(t *testing.T) {
	_, f, _, tables, _ := dynamicHarness(t)
	// Node 2 neighbors node 1; after node 1 adopts the joiner and
	// re-announces, node 2 must know the link joiner<->1.
	truth := f.Neighbors(50)
	for _, adoptive := range truth {
		for _, third := range f.Neighbors(adoptive) {
			if third == 50 {
				continue
			}
			if !tables[third].KnowsLink(50, adoptive) {
				t.Fatalf("node %d never learned link %d<->50 from re-announcement", third, adoptive)
			}
		}
	}
}

func TestStaticModeRejectsJoiner(t *testing.T) {
	// Without Dynamic, an established node ignores neighbor lists from
	// strangers even with valid tags.
	k := sim.New(9)
	f := chain(t, 2)
	med := medium.New(k, f, medium.Config{BandwidthBps: 40_000})
	ks := keys.NewKeyServer(99)
	tb1 := NewTable(1)
	d1 := NewDiscovery(k, keys.NewRing(1, ks), tb1, med.Broadcast, false)
	if err := med.Attach(1, func(p *packet.Packet) { d1.Handle(p) }); err != nil {
		t.Fatal(err)
	}
	if err := med.Attach(2, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := d1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(6 * time.Second); err != nil {
		t.Fatal(err)
	}

	// A "joiner" (node 50) with valid keys announces a list naming node 1.
	ring50 := keys.NewRing(50, ks)
	payload, err := EncodeNeighborList([]field.NodeID{1}, func(list []byte, m field.NodeID) []byte {
		return ring50.SignBytes(list, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	d1.Handle(&packet.Packet{
		Type: packet.TypeNeighborList, Seq: 1, Origin: 50, Sender: 50,
		PrevHop: 50, Receiver: packet.Broadcast, Payload: payload,
	})
	if tb1.HasEntry(50) {
		t.Fatal("static-mode node adopted a stranger")
	}
}

func TestDynamicJoinRequiresRecentHello(t *testing.T) {
	// In Dynamic mode, a neighbor list from a stranger whose HELLO was
	// never heard must still be rejected (no open join window).
	k := sim.New(9)
	f := chain(t, 2)
	med := medium.New(k, f, medium.Config{BandwidthBps: 40_000})
	ks := keys.NewKeyServer(99)
	tb1 := NewTable(1)
	d1 := NewDiscovery(k, keys.NewRing(1, ks), tb1, med.Broadcast, true)
	if err := med.Attach(1, func(p *packet.Packet) { d1.Handle(p) }); err != nil {
		t.Fatal(err)
	}
	if err := med.Attach(2, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := d1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(6 * time.Second); err != nil {
		t.Fatal(err)
	}

	ring50 := keys.NewRing(50, ks)
	payload, err := EncodeNeighborList([]field.NodeID{1}, func(list []byte, m field.NodeID) []byte {
		return ring50.SignBytes(list, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	d1.Handle(&packet.Packet{
		Type: packet.TypeNeighborList, Seq: 1, Origin: 50, Sender: 50,
		PrevHop: 50, Receiver: packet.Broadcast, Payload: payload,
	})
	if tb1.HasEntry(50) {
		t.Fatal("dynamic node adopted a stranger without a join handshake")
	}
}

func TestDynamicJoinWindowExpires(t *testing.T) {
	k := sim.New(9)
	f := chain(t, 2)
	med := medium.New(k, f, medium.Config{BandwidthBps: 40_000})
	ks := keys.NewKeyServer(99)
	tb1 := NewTable(1)
	d1 := NewDiscovery(k, keys.NewRing(1, ks), tb1, med.Broadcast, true)
	if err := med.Attach(1, func(p *packet.Packet) { d1.Handle(p) }); err != nil {
		t.Fatal(err)
	}
	if err := med.Attach(2, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}

	// Stranger's HELLO opens the window...
	d1.Handle(&packet.Packet{
		Type: packet.TypeHello, Seq: 1, Origin: 50, Sender: 50,
		PrevHop: 50, Receiver: packet.Broadcast,
	})
	// ...but the list arrives after the TTL.
	if err := k.RunUntil(joinTTL + time.Second); err != nil {
		t.Fatal(err)
	}
	ring50 := keys.NewRing(50, ks)
	payload, err := EncodeNeighborList([]field.NodeID{1}, func(list []byte, m field.NodeID) []byte {
		return ring50.SignBytes(list, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	d1.Handle(&packet.Packet{
		Type: packet.TypeNeighborList, Seq: 2, Origin: 50, Sender: 50,
		PrevHop: 50, Receiver: packet.Broadcast, Payload: payload,
	})
	if tb1.HasEntry(50) {
		t.Fatal("join window did not expire")
	}
}
