package routing

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// TestRouteCycleAllocsWarm is the allocation pin of the routing pools. One
// warm cycle at the origin — discovery (newDiscovery), the reply installing
// a cached route (newRoute) and its hop-by-hop forwarding entry (newHop),
// the queued payload flushed (recycleDiscovery), then route and entry
// expiry (recycleRoute, recycleHop) — costs exactly the four packet
// allocations: the request and its one-hop route, the data packet and its
// payload copy. Every record comes back from its free list; a release that
// stops recycling shows up here as extra allocations per cycle.
func TestRouteCycleAllocsWarm(t *testing.T) {
	k := sim.New(1)
	cfg := Config{HopByHop: true, RouteTimeout: 5 * time.Second}
	r := New(k, 1, cfg, func(*packet.Packet) error { return nil }, Events{})
	rep := &packet.Packet{
		Type: packet.TypeRouteReply, Origin: 3, FinalDest: 1, Sender: 2, PrevHop: 2,
		Receiver: 1, Route: []field.NodeID{1, 2, 3},
	}
	payload := []byte("x")
	cycle := func() {
		if err := r.Send(3, payload); err != nil {
			t.Fatal(err)
		}
		r.HandleRouteReply(rep)
		if !r.HasRoute(3) {
			t.Fatal("reply installed no route")
		}
		if err := k.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if r.HasRoute(3) {
			t.Fatal("route survived its timeout")
		}
	}
	for range 64 {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	const want = 4
	if allocs != want {
		t.Fatalf("warm discovery/route/expiry cycle allocates %.1f objects, want %d", allocs, want)
	}
	if s := r.Stats(); s.RoutesEstablished != 64+201 || s.DataOriginated != 64+201 {
		t.Fatalf("stats %+v: every cycle must establish one route and send one packet", s)
	}
}
