package neighbor

import (
	"math/rand"
	"testing"

	"liteworp/internal/field"
	"liteworp/internal/keys"
	"liteworp/internal/medium"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// harness wires n nodes (tables, rings, discovery) over a medium built from
// the given field, then runs the full discovery protocol.
type harness struct {
	kernel *sim.Kernel
	topo   *field.Field
	med    *medium.Medium
	tables map[field.NodeID]*Table
	discos map[field.NodeID]*Discovery
}

func newHarness(t testing.TB, topo *field.Field, seed int64) *harness {
	t.Helper()
	k := sim.New(seed)
	med := medium.New(k, topo, medium.Config{BandwidthBps: 250_000})
	ks := keys.NewKeyServer(99)
	h := &harness{
		kernel: k,
		topo:   topo,
		med:    med,
		tables: make(map[field.NodeID]*Table),
		discos: make(map[field.NodeID]*Discovery),
	}
	for _, id := range topo.IDs() {
		id := id
		tb := NewTable(id)
		ring := keys.NewRing(id, ks)
		d := NewDiscovery(k, ring, tb, med.Broadcast, false)
		h.tables[id] = tb
		h.discos[id] = d
		if err := med.Attach(id, func(p *packet.Packet) { d.Handle(p) }); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func (h *harness) run(t testing.TB) {
	t.Helper()
	for _, d := range h.discos {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.kernel.Run(); err != nil {
		t.Fatal(err)
	}
}

func chain(t testing.TB, n int) *field.Field {
	t.Helper()
	f := field.New(float64(n*20+20), 40, 30)
	for i := 1; i <= n; i++ {
		if err := f.Place(field.NodeID(i), field.Point{X: float64(i * 20), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestDiscoveryBuildsCorrectOneHopTables(t *testing.T) {
	h := newHarness(t, chain(t, 5), 1)
	h.run(t)
	for _, id := range h.topo.IDs() {
		got := h.tables[id].Neighbors()
		want := h.topo.Neighbors(id)
		if len(got) != len(want) {
			t.Fatalf("node %d neighbors = %v, want %v", id, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d neighbors = %v, want %v", id, got, want)
			}
		}
		if !h.discos[id].Complete() {
			t.Fatalf("node %d discovery incomplete", id)
		}
	}
}

func TestDiscoveryBuildsCorrectTwoHopTables(t *testing.T) {
	h := newHarness(t, chain(t, 5), 2)
	h.run(t)
	// Node 1's neighbor 2 should have announced {1,3}.
	tb := h.tables[1]
	nset := tb.NeighborsOf(2)
	if nset == nil {
		t.Fatal("node 1 missing neighbor list of node 2")
	}
	if !containsSorted(nset, 1) || !containsSorted(nset, 3) || len(nset) != 2 {
		t.Fatalf("node 1's view of 2's neighbors = %v, want {1,3}", nset)
	}
	// Second-hop check: 3 is a legal previous hop for packets forwarded
	// by 2; 4 is not.
	if !tb.KnowsLink(3, 2) {
		t.Fatal("legal second-hop link rejected")
	}
	if tb.KnowsLink(4, 2) {
		t.Fatal("illegal second-hop link accepted")
	}
}

func TestDiscoveryOnRandomDeployment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	side := field.SideForDensity(60, 8, 30)
	topo, err := field.DeployUniform(field.DeployConfig{N: 60, Width: side, Height: side, Range: 30, FirstID: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, topo, 4)
	h.run(t)
	for _, id := range topo.IDs() {
		got := h.tables[id].Neighbors()
		want := topo.Neighbors(id)
		if len(got) != len(want) {
			t.Fatalf("node %d: %d neighbors discovered, want %d", id, len(got), len(want))
		}
		// Every neighbor's announced list must match ground truth.
		for _, nb := range want {
			nset := h.tables[id].NeighborsOf(nb)
			truth := topo.Neighbors(nb)
			if len(nset) != len(truth) {
				t.Fatalf("node %d's view of %d's list has %d entries, want %d",
					id, nb, len(nset), len(truth))
			}
			for _, x := range truth {
				if !containsSorted(nset, x) {
					t.Fatalf("node %d's view of %d's list missing %d", id, nb, x)
				}
			}
		}
	}
}

func TestDiscoveryIgnoresUnauthenticatedReply(t *testing.T) {
	// An external attacker without keys replies to a HELLO; the announcer
	// must not add it.
	topo := chain(t, 2)
	if err := topo.Place(66, field.Point{X: 20, Y: 10}); err != nil { // in range of node 1
		t.Fatal(err)
	}
	k := sim.New(5)
	med := medium.New(k, topo, medium.Config{BandwidthBps: 40_000})
	ks := keys.NewKeyServer(99)

	tb1 := NewTable(1)
	d1 := NewDiscovery(k, keys.NewRing(1, ks), tb1, med.Broadcast, false)
	if err := med.Attach(1, func(p *packet.Packet) { d1.Handle(p) }); err != nil {
		t.Fatal(err)
	}
	if err := med.Attach(2, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	// Node 66 is an outsider: it replies with a garbage MAC.
	if err := med.Attach(66, func(p *packet.Packet) {
		if p.Type != packet.TypeHello {
			return
		}
		reply := &packet.Packet{
			Type: packet.TypeHelloReply, Seq: 1, Origin: 66, Sender: 66,
			PrevHop: 66, Receiver: p.Sender,
			MAC: []byte{0, 1, 2, 3, 4, 5, 6, 7},
		}
		_ = med.Broadcast(reply)
	}); err != nil {
		t.Fatal(err)
	}
	if err := d1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tb1.IsNeighbor(66) {
		t.Fatal("unauthenticated outsider accepted as neighbor")
	}
}

func TestDiscoveryRejectsForgedNeighborList(t *testing.T) {
	// A compromised-key-free outsider broadcasts a forged neighbor list
	// claiming to be node 2; node 1 must ignore it because the per-member
	// tag cannot verify.
	topo := chain(t, 3)
	k := sim.New(6)
	med := medium.New(k, topo, medium.Config{BandwidthBps: 40_000})
	ks := keys.NewKeyServer(99)

	tb1 := NewTable(1)
	d1 := NewDiscovery(k, keys.NewRing(1, ks), tb1, med.Broadcast, false)
	if err := med.Attach(1, func(p *packet.Packet) { d1.Handle(p) }); err != nil {
		t.Fatal(err)
	}
	tb2 := NewTable(2)
	d2 := NewDiscovery(k, keys.NewRing(2, ks), tb2, med.Broadcast, false)
	if err := med.Attach(2, func(p *packet.Packet) { d2.Handle(p) }); err != nil {
		t.Fatal(err)
	}
	tb3 := NewTable(3)
	d3 := NewDiscovery(k, keys.NewRing(3, ks), tb3, med.Broadcast, false)
	if err := med.Attach(3, func(p *packet.Packet) { d3.Handle(p) }); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Discovery{d1, d2, d3} {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Legitimate state: 1 knows 2's true list {1,3}.
	if !tb1.KnowsLink(3, 2) {
		t.Fatal("setup: legitimate discovery failed")
	}

	// Forged announcement: claims node 2's neighbors are {1, 99}.
	forged, err := EncodeNeighborList([]field.NodeID{1, 99},
		func(list []byte, member field.NodeID) []byte {
			return make([]byte, packet.MACSize) // zero tags
		})
	if err != nil {
		t.Fatal(err)
	}
	fake := &packet.Packet{
		Type: packet.TypeNeighborList, Seq: 77, Origin: 2, Sender: 2,
		PrevHop: 2, Receiver: packet.Broadcast, Payload: forged,
	}
	d1.Handle(fake)
	if tb1.KnowsLink(99, 2) {
		t.Fatal("forged neighbor list accepted")
	}
}

func TestDoubleStartFails(t *testing.T) {
	h := newHarness(t, chain(t, 2), 7)
	d := h.discos[1]
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestOnCompleteFires(t *testing.T) {
	h := newHarness(t, chain(t, 2), 8)
	fired := false
	h.discos[1].OnComplete(func() { fired = true })
	h.run(t)
	if !fired {
		t.Fatal("OnComplete did not fire")
	}
}

func TestEncodeDecodeNeighborList(t *testing.T) {
	ks := keys.NewKeyServer(1)
	ring := keys.NewRing(7, ks)
	members := []field.NodeID{3, 9, 12}
	payload, err := EncodeNeighborList(members, func(list []byte, m field.NodeID) []byte {
		return ring.SignBytes(list, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		ids, listBytes, tag, err := DecodeNeighborList(payload, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 3 || ids[i] != m {
			t.Fatalf("decoded ids = %v", ids)
		}
		peerRing := keys.NewRing(m, ks)
		if !peerRing.VerifyBytes(listBytes, tag, 7) {
			t.Fatalf("member %d tag failed to verify", m)
		}
	}
	// Non-member gets no tag.
	_, _, tag, err := DecodeNeighborList(payload, 42)
	if err != nil || tag != nil {
		t.Fatalf("non-member decode: tag=%v err=%v", tag, err)
	}
}

func TestDecodeNeighborListMalformed(t *testing.T) {
	if _, _, _, err := DecodeNeighborList(nil, 1); err == nil {
		t.Fatal("nil payload accepted")
	}
	if _, _, _, err := DecodeNeighborList([]byte{0, 5, 1}, 1); err == nil {
		t.Fatal("short payload accepted")
	}
	// Valid empty list.
	ids, _, tag, err := DecodeNeighborList([]byte{0, 0}, 1)
	if err != nil || len(ids) != 0 || tag != nil {
		t.Fatalf("empty list decode: %v %v %v", ids, tag, err)
	}
}

func TestDiscoveryDeterministic(t *testing.T) {
	sum := func() int {
		h := newHarness(t, chain(t, 6), 42)
		h.run(t)
		total := 0
		for _, tb := range h.tables {
			total += tb.MemoryBytes()
		}
		return total
	}
	if sum() != sum() {
		t.Fatal("discovery nondeterministic under equal seeds")
	}
}
