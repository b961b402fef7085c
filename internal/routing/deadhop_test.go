package routing

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/medium"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// Tests for dead next-hop eviction: maxSendFailures consecutive MAC-level
// send failures toward a neighbor evict every route through it and push the
// failing traffic back into discovery.

// failingSender fakes the medium: unicasts to hops in `dead` fail.
type failingSender struct {
	dead map[field.NodeID]bool
	sent []*packet.Packet
}

func (f *failingSender) send(p *packet.Packet) error {
	f.sent = append(f.sent, p.Clone()) // the router reuses its frames once send returns
	if p.Receiver != packet.Broadcast && f.dead[p.Receiver] {
		return medium.ErrLinkDown
	}
	return nil
}

func (f *failingSender) countType(t packet.Type) int {
	n := 0
	for _, p := range f.sent {
		if p.Type == t {
			n++
		}
	}
	return n
}

// installTestRoute gives the router a cached route via a synthetic REP.
func installTestRoute(r *Router, route ...field.NodeID) {
	r.installRoute(&packet.Packet{
		Type: packet.TypeRouteReply, Origin: route[0], FinalDest: route[0],
		Sender: route[1], PrevHop: route[1], Receiver: route[0], Route: route,
	})
}

func TestDeadNextHopEvictsAndRediscovers(t *testing.T) {
	k := sim.New(1)
	fs := &failingSender{dead: map[field.NodeID]bool{2: true}}
	r := newRouter(k, 1, Config{}, fs.send, Events{})
	installTestRoute(r, 1, 2, 4)
	installTestRoute(r, 1, 2, 5) // second route through the same dead hop
	if !r.HasRoute(4) || !r.HasRoute(5) {
		t.Fatal("setup: routes not installed")
	}

	for i := 0; i < maxSendFailures; i++ {
		if err := r.Send(4, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if i < maxSendFailures-1 && !r.HasRoute(4) {
			t.Fatalf("route evicted after only %d failures", i+1)
		}
	}
	if r.HasRoute(4) || r.HasRoute(5) {
		t.Fatal("routes through dead hop 2 not evicted after 3 failures")
	}
	st := r.Stats()
	if st.SendFailures != 3 || st.DeadHopEvictions != 1 {
		t.Fatalf("stats = %+v, want 3 send failures, 1 eviction", st)
	}
	// The failing payload re-entered discovery: a fresh REQ went out.
	if got := fs.countType(packet.TypeRouteRequest); got != 1 {
		t.Fatalf("route requests after eviction = %d, want 1", got)
	}
	if st.RequestsOriginated != 1 {
		t.Fatalf("RequestsOriginated = %d, want 1", st.RequestsOriginated)
	}
}

func TestSuccessfulSendResetsFailureCounter(t *testing.T) {
	k := sim.New(1)
	fs := &failingSender{dead: map[field.NodeID]bool{2: true}}
	r := newRouter(k, 1, Config{}, fs.send, Events{})
	installTestRoute(r, 1, 2, 4)

	for i := 0; i < 2; i++ {
		_ = r.Send(4, []byte("x"))
	}
	fs.dead[2] = false
	_ = r.Send(4, []byte("x")) // success: counter resets
	fs.dead[2] = true
	for i := 0; i < 2; i++ {
		_ = r.Send(4, []byte("x"))
	}
	if !r.HasRoute(4) {
		t.Fatal("route evicted despite interleaved success (counter must be consecutive)")
	}
	_ = r.Send(4, []byte("x"))
	if r.HasRoute(4) {
		t.Fatal("route survived the threshold failure")
	}
}

func TestForwarderCountsFailuresPerHop(t *testing.T) {
	// An intermediate forwarder also notices the MAC failures; in HopByHop
	// mode its forwarding entries through the dead hop are dropped.
	k := sim.New(1)
	fs := &failingSender{dead: map[field.NodeID]bool{4: true}}
	r := newRouter(k, 2, Config{HopByHop: true}, fs.send, Events{})
	r.setForward(9, 4)
	if _, ok := r.NextHop(9); !ok {
		t.Fatal("setup: forward entry missing")
	}
	data := &packet.Packet{
		Type: packet.TypeData, Origin: 1, FinalDest: 9,
		Sender: 1, PrevHop: 1, Receiver: 2, Payload: []byte("x"),
	}
	for i := 0; i < maxSendFailures; i++ {
		if _, ok := r.NextHop(9); !ok {
			t.Fatalf("forwarding entry dropped after only %d failures", i)
		}
		if err := r.HandleData(data.Clone()); err == nil {
			t.Fatal("forward over dead link reported success")
		}
	}
	if _, ok := r.NextHop(9); ok {
		t.Fatal("forwarding entry through dead hop not dropped")
	}
}

func TestCrashRecoveryOverMedium(t *testing.T) {
	// Full loop over the real medium: node 2 (the source's first hop)
	// crashes, the source's sends come back ErrLinkDown, the route is
	// evicted, rediscovery fails while 2 is down, and once 2 reboots a
	// fresh discovery re-establishes delivery.
	var delivered int
	h := newHarness(t, chain(t, 4), 5, Config{},
		func(id field.NodeID) Events {
			if id != 4 {
				return Events{}
			}
			return Events{DataDelivered: func(*packet.Packet) { delivered++ }}
		})
	src := h.routers[1]
	if err := src.Send(4, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 || !src.HasRoute(4) {
		t.Fatalf("setup: delivered=%d, HasRoute=%v", delivered, src.HasRoute(4))
	}

	if err := h.med.SetDown(2, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_ = src.Send(4, []byte("b"))
		if err := h.kernel.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if src.HasRoute(4) {
		t.Fatal("route through crashed hop not evicted")
	}
	// Let the doomed rediscovery time out while 2 is down.
	if err := h.kernel.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := h.med.SetDown(2, false); err != nil {
		t.Fatal(err)
	}
	if err := src.Send(4, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("delivered = %d after reboot, want 2 (recovery failed)", delivered)
	}
}
