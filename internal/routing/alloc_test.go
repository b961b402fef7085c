package routing

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/medium"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// TestRouteCycleAllocsWarm is the allocation pin of the routing pools. One
// warm cycle at the origin — discovery (newDiscovery), the reply installing
// a cached route (newRoute) and its hop-by-hop forwarding entry (newHop),
// the queued payload flushed (recycleDiscovery), then route and entry
// expiry (recycleRoute, recycleHop) — allocates nothing. Every record comes
// back from its free list, and so do the request and the data packet: the
// send stub keeps neither, so the router's release after send is their
// last, and each returns to the router's frame pool with its route and
// payload capacity. A release that stops recycling shows up here as extra
// allocations per cycle.
func TestRouteCycleAllocsWarm(t *testing.T) {
	k := sim.New(1)
	cfg := Config{HopByHop: true, RouteTimeout: 5 * time.Second}
	r := newRouter(k, 1, cfg, func(*packet.Packet) error { return nil }, Events{})
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
	const want = 0
	if allocs != want {
		t.Fatalf("warm discovery/route/expiry cycle allocates %.1f objects, want %d", allocs, want)
	}
	if s := r.Stats(); s.RoutesEstablished != 64+201 || s.DataOriginated != 64+201 {
		t.Fatalf("stats %+v: every cycle must establish one route and send one packet", s)
	}
}

// forwardRig is the middle node of a three-node line, forwarding through a
// real medium: node 1's frame reaches node 2's router, which forwards it in
// a frame from the medium's pool, and nodes 1 and 3 hear the forward. One
// cycle is a full routed hop: receive, the REQ's jitter firing, transmit,
// deliver, and the delivery batch's release sending the frame back to the
// pool.
type forwardRig struct {
	k   *sim.Kernel
	med *medium.Medium
	r   *Router
	in  *packet.Packet
	// last is the forward node 3 heard last; the rig compares its pointer
	// only, after the frame's release.
	last *packet.Packet
}

func newForwardRig(tb testing.TB, in *packet.Packet) *forwardRig {
	tb.Helper()
	k := sim.New(1)
	med := medium.New(k, chain(tb, 3), medium.Config{BandwidthBps: 250_000})
	rig := &forwardRig{k: k, med: med, in: in}
	cfg := Config{Frames: med.Frames()}
	rig.r = newRouter(k, 2, cfg, med.Broadcast, Events{})
	recv := map[field.NodeID]medium.Receiver{
		1: func(*packet.Packet) {},
		2: func(p *packet.Packet) {
			switch {
			case p.Sender != 1:
			case p.Type == packet.TypeRouteRequest:
				rig.r.HandleRouteRequest(p)
			case p.Type == packet.TypeData:
				if err := rig.r.HandleData(p); err != nil {
					tb.Fatal(err)
				}
			}
		},
		3: func(p *packet.Packet) { rig.last = p },
	}
	for id := field.NodeID(1); id <= 3; id++ {
		if err := med.Attach(id, recv[id]); err != nil {
			tb.Fatal(err)
		}
	}
	return rig
}

// cycle lasts seenTTL, so the REQ key the last cycle recorded has expired
// and every cycle forwards the same frame again.
func (rig *forwardRig) cycle(tb testing.TB) {
	if err := rig.med.Broadcast(rig.in); err != nil {
		tb.Fatal(err)
	}
	if err := rig.k.RunFor(seenTTL); err != nil {
		tb.Fatal(err)
	}
}

func requestIn() *packet.Packet {
	return &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 1, FinalDest: 9, Sender: 1, PrevHop: 1,
		Receiver: packet.Broadcast, Route: []field.NodeID{1},
	}
}

func dataIn() *packet.Packet {
	return &packet.Packet{
		Type: packet.TypeData, Seq: 1, Origin: 1, FinalDest: 3, Sender: 1, PrevHop: 1,
		Receiver: 2, Route: []field.NodeID{1, 2, 3}, Payload: []byte("payload"),
	}
}

// TestForwardAllocsWarm pins a warm routed hop at zero allocations, for a
// REQ forward (pooled frame, pooled jitter record) and a DATA forward
// (pooled frame sent at once): the frame comes back to the medium's pool
// with the last delivery batch's release, with its route's capacity, and
// the next cycle forwards in it again.
func TestForwardAllocsWarm(t *testing.T) {
	for _, tc := range []struct {
		name      string
		in        func() *packet.Packet
		forwarded func(Stats) uint64
	}{
		{"REQ", requestIn, func(s Stats) uint64 { return s.RequestsForwarded }},
		{"DATA", dataIn, func(s Stats) uint64 { return s.DataForwarded }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newForwardRig(t, tc.in())
			for range 8 {
				rig.cycle(t)
			}
			allocs := testing.AllocsPerRun(100, func() { rig.cycle(t) })
			if allocs != 0 {
				t.Fatalf("warm %s forward cycle allocates %.1f objects, want 0", tc.name, allocs)
			}
			if n := tc.forwarded(rig.r.Stats()); n != 8+101 {
				t.Fatalf("%d forwards, want one per cycle (%d)", n, 8+101)
			}
			p := rig.med.Frames().Clone(&packet.Packet{})
			if p != rig.last {
				t.Fatal("the frame node 3 heard is not back in the pool")
			}
			p.Release()
		})
	}
}

// BenchmarkRequestForward times one warm REQ hop through the rig: receive,
// jitter, transmit, deliver, release. It reports 0 allocs/op.
func BenchmarkRequestForward(b *testing.B) {
	rig := newForwardRig(b, requestIn())
	for range 8 {
		rig.cycle(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.cycle(b)
	}
}
