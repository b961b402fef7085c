package routing

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/medium"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// rerrWorld wires routers over a medium with a dispatcher that understands
// RERR and lets the test veto forwarding at chosen nodes (simulating a
// broken next hop).
type rerrWorld struct {
	kernel  *sim.Kernel
	routers map[field.NodeID]*Router
	broken  map[field.NodeID]bool // nodes that refuse to forward data
}

func newRerrWorld(t *testing.T, n int, cfg Config) *rerrWorld {
	t.Helper()
	cfg.SendRouteErrors = true
	k := sim.New(31)
	topo := chain(t, n)
	med := medium.New(k, topo, medium.Config{BandwidthBps: 250_000})
	w := &rerrWorld{kernel: k, routers: make(map[field.NodeID]*Router), broken: make(map[field.NodeID]bool)}
	for _, id := range topo.IDs() {
		id := id
		rt := newRouter(k, id, cfg, med.Broadcast, Events{})
		w.routers[id] = rt
		if err := med.Attach(id, func(p *packet.Packet) { w.dispatch(rt, p) }); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func (w *rerrWorld) dispatch(rt *Router, p *packet.Packet) {
	switch p.Type {
	case packet.TypeRouteRequest:
		rt.HandleRouteRequest(p)
	case packet.TypeRouteReply:
		if p.Receiver == rt.Self() {
			rt.HandleRouteReply(p)
		}
	case packet.TypeRouteError:
		if p.Receiver == rt.Self() {
			rt.HandleRouteError(p)
		}
	case packet.TypeData:
		if p.Receiver != rt.Self() {
			return
		}
		if w.broken[rt.Self()] && p.FinalDest != rt.Self() {
			// Simulated link failure: cannot forward; report back.
			rt.ReportBrokenRoute(p)
			return
		}
		if err := rt.HandleData(p); err != nil {
			rt.ReportBrokenRoute(p)
		}
	}
}

func TestRERREndToEndEvictsSourceRoute(t *testing.T) {
	w := newRerrWorld(t, 5, Config{})
	src := w.routers[1]
	if err := src.Send(5, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !src.HasRoute(5) {
		t.Fatal("route not established")
	}
	// Node 3's onward link "breaks"; the next data packet triggers a RERR
	// that travels 3 -> 2 -> 1 and evicts the route at the source.
	w.broken[3] = true
	if err := src.Send(5, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if src.HasRoute(5) {
		t.Fatal("source kept the dead route after RERR")
	}
	if src.Stats().RouteErrorsApplied != 1 {
		t.Fatalf("source stats = %+v", src.Stats())
	}
	if w.routers[3].Stats().RouteErrorsSent != 1 {
		t.Fatalf("reporter stats = %+v", w.routers[3].Stats())
	}
	if w.routers[2].Stats().RouteErrorsRelayed != 1 {
		t.Fatalf("relay stats = %+v", w.routers[2].Stats())
	}
	// The next send rediscovers (node 3 still "broken" only for data
	// forwarding, so the flood re-establishes the same path; the point is
	// the re-discovery happens immediately instead of after TOutRoute).
	before := src.Stats().RequestsOriginated
	if err := src.Send(5, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if src.Stats().RequestsOriginated <= before {
		t.Fatal("no immediate rediscovery after RERR eviction")
	}
}

func TestRERREndToEndHopByHop(t *testing.T) {
	w := newRerrWorld(t, 5, Config{HopByHop: true})
	src := w.routers[1]
	if err := src.Send(5, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.broken[3] = true
	if err := src.Send(5, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if src.HasRoute(5) {
		t.Fatal("hop-by-hop source kept the dead route after RERR")
	}
}

func TestRERRDisabledIsNoop(t *testing.T) {
	h := newHarness(t, chain(t, 3), 34, Config{}, nil)
	data := &packet.Packet{
		Type: packet.TypeData, Seq: 9, Origin: 1, FinalDest: 3,
		Sender: 1, PrevHop: 1, Receiver: 2,
		Route: []field.NodeID{1, 2, 3},
	}
	h.routers[2].ReportBrokenRoute(data)
	if h.routers[2].Stats().RouteErrorsSent != 0 {
		t.Fatal("RERR sent despite being disabled")
	}
}

func TestRERRNotOriginatedBySource(t *testing.T) {
	h := newHarness(t, chain(t, 3), 36, Config{SendRouteErrors: true}, nil)
	data := &packet.Packet{
		Type: packet.TypeData, Seq: 9, Origin: 1, FinalDest: 3,
		Sender: 1, PrevHop: 1, Receiver: 2,
		Route: []field.NodeID{1, 2, 3},
	}
	h.routers[1].ReportBrokenRoute(data)
	if h.routers[1].Stats().RouteErrorsSent != 0 {
		t.Fatal("source sent a RERR to itself")
	}
}

func TestRERRIgnoresNonDataAndStrangers(t *testing.T) {
	h := newHarness(t, chain(t, 3), 37, Config{SendRouteErrors: true}, nil)
	rep := &packet.Packet{
		Type: packet.TypeRouteReply, Seq: 9, Origin: 1, FinalDest: 1,
		Sender: 3, PrevHop: 3, Receiver: 2, Route: []field.NodeID{1, 2, 3},
	}
	h.routers[2].ReportBrokenRoute(rep)
	if h.routers[2].Stats().RouteErrorsSent != 0 {
		t.Fatal("RERR for a non-data packet")
	}
	// Node not on the route cannot report.
	data := &packet.Packet{
		Type: packet.TypeData, Seq: 9, Origin: 1, FinalDest: 3,
		Sender: 1, PrevHop: 1, Receiver: 2,
		Route: []field.NodeID{1, 9, 3},
	}
	h.routers[2].ReportBrokenRoute(data)
	if h.routers[2].Stats().RouteErrorsSent != 0 {
		t.Fatal("off-route node sent a RERR")
	}
}
