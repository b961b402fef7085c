package routing

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
)

// TestRebootedOriginReusesSeq pins REQ suppression across an origin's
// reboot on the line 1-2-3. The new incarnation of node 1 numbers its
// requests from 1 again, so its first REQ reuses the identity (1, 1) of
// one its old incarnation flooded under two seconds before, well within
// seenTTL: nodes 2 and 3 still hold that mark and suppress the new flood.
// The new incarnation itself starts with no marks, so a copy of node 3's
// earlier flood, which the old incarnation forwarded once and then
// suppressed, is forwarded again.
func TestRebootedOriginReusesSeq(t *testing.T) {
	h := newHarness(t, chain(t, 3), 1, Config{}, nil)
	run := func() {
		t.Helper()
		if err := h.kernel.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	forwards := func(id field.NodeID) uint64 { return h.routers[id].Stats().RequestsForwarded }

	old := h.routers[1]
	if err := old.Send(9, []byte("a")); err != nil { // REQ (1, 1), to nobody
		t.Fatal(err)
	}
	run()
	if err := h.routers[3].Send(8, []byte("b")); err != nil { // REQ (3, 1)
		t.Fatal(err)
	}
	run()
	if f1, f2, f3 := forwards(1), forwards(2), forwards(3); f1 != 1 || f2 != 2 || f3 != 1 {
		t.Fatalf("before the reboot, nodes 1-3 forwarded %d, %d, %d REQs, want 1, 2, 1", f1, f2, f3)
	}
	copy3 := func() *packet.Packet {
		return &packet.Packet{
			Type: packet.TypeRouteRequest, Seq: 1, Origin: 3, FinalDest: 8, Sender: 2, PrevHop: 3,
			Receiver: packet.Broadcast, Route: []field.NodeID{3, 2}, HopCount: 1,
		}
	}
	old.HandleRouteRequest(copy3())
	run()
	if got := forwards(1); got != 1 {
		t.Fatalf("the old incarnation forwarded (3, 1) again: %d forwards, want 1", got)
	}

	fresh := h.reboot(1)
	if err := fresh.Send(9, []byte("c")); err != nil { // REQ (1, 1) again
		t.Fatal(err)
	}
	run()
	if s := fresh.Stats(); s.RequestsOriginated != 1 {
		t.Fatalf("the new incarnation originated %d REQs, want 1", s.RequestsOriginated)
	}
	if f2, f3 := forwards(2), forwards(3); f2 != 2 || f3 != 1 {
		t.Fatalf("the reused (1, 1) was forwarded: nodes 2 and 3 forwarded %d and %d REQs, want 2 and 1", f2, f3)
	}

	fresh.HandleRouteRequest(copy3())
	run()
	if got := fresh.Stats().RequestsForwarded; got != 1 {
		t.Fatalf("the new incarnation forwarded %d copies of (3, 1), want 1: it sees its old marks", got)
	}
}
