package core

import (
	"testing"
	"time"

	"liteworp/internal/detector"
	"liteworp/internal/field"
	"liteworp/internal/keys"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
	"liteworp/internal/watch"
)

// testNode bundles an engine with its captured outbound frames.
type testNode struct {
	engine *Engine
	table  *neighbor.Table
	sent   []*packet.Packet
}

// newTestNode builds node self's engine. A guard whose test shares no
// reception log records on one of its own, and a hook the test leaves
// unset observes nothing.
func newTestNode(k *sim.Kernel, ks *keys.KeyServer, self field.NodeID, cfg Config, ev Events) *testNode {
	if cfg.Detector.Watch.Log == nil {
		cfg.Detector.Watch.Log = watch.NewLog(k)
	}
	if ev.Accusation == nil {
		ev.Accusation = func(watch.Accusation) {}
	}
	if ev.LocalRevocation == nil {
		ev.LocalRevocation = func(field.NodeID) {}
	}
	if ev.AlertSent == nil {
		ev.AlertSent = func(_, _ field.NodeID) {}
	}
	if ev.Isolated == nil {
		ev.Isolated = func(field.NodeID) {}
	}
	if ev.AlertRetry == nil {
		ev.AlertRetry = func(_, _ field.NodeID, _ int) {}
	}
	n := &testNode{table: neighbor.NewTable(self)}
	ring := keys.NewRing(self, ks)
	n.engine = New(k, ring, n.table, cfg, func(p *packet.Packet) error {
		n.sent = append(n.sent, p)
		return nil
	}, ev)
	return n
}

// resolve returns what n's Monitor hands CheckInbound for a frame from
// id: its nbrIdx when it is in n's table, else Unresolved.
func (n *testNode) resolve(id field.NodeID) int32 {
	if i, _, ok := n.table.Lookup(id); ok {
		return i
	}
	return Unresolved
}

// heard reports whether n's guard heard id send key.
func (n *testNode) heard(id field.NodeID, key packet.Key) bool {
	i, ok := n.table.Index().Lookup(id)
	return ok && n.engine.Buffer().HeardIdx(i, key)
}

// wire populates node g's table: direct neighbors plus each neighbor's
// announced list.
func wire(n *testNode, neighbors map[field.NodeID][]field.NodeID) {
	for id, list := range neighbors {
		n.table.AddDirect(id)
		n.table.SetNeighborSet(id, list)
	}
}

func testConfig() Config {
	return Config{
		Detector: detector.Config{
			Watch: watch.Config{
				Timeout:              500 * time.Millisecond,
				FabricationIncrement: 2,
				DropIncrement:        1,
				Threshold:            4,
				Window:               200 * time.Second,
			},
		},
		Gamma: 2,
	}
}

func rep(origin, final, sender, prev, recv field.NodeID, seq uint64) *packet.Packet {
	return &packet.Packet{
		Type: packet.TypeRouteReply, Seq: seq, Origin: origin, FinalDest: final,
		Sender: sender, PrevHop: prev, Receiver: recv,
	}
}

func req(origin, final, sender, prev field.NodeID, seq uint64, route ...field.NodeID) *packet.Packet {
	return &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: seq, Origin: origin, FinalDest: final,
		Sender: sender, PrevHop: prev, Receiver: packet.Broadcast, Route: route,
	}
}

func TestCheckInbound(t *testing.T) {
	k := sim.New(1)
	ks := keys.NewKeyServer(1)
	n := newTestNode(k, ks, 1, testConfig(), Events{})
	wire(n, map[field.NodeID][]field.NodeID{
		2: {1, 3},
		3: {1, 2},
	})

	// Valid: neighbor 2 forwards a packet from its neighbor 3.
	// Each refusal is counted under its own cause and no other.
	rejects := func() [3]uint64 {
		st := n.engine.Stats()
		return [3]uint64{st.RejectedNonNeighbor, st.RejectedUnknownLink, st.RejectedRevoked}
	}
	check := func(p *packet.Packet) bool { return n.engine.CheckInbound(p, n.resolve(p.Sender)) }
	p := rep(9, 9, 2, 3, 1, 1)
	if !check(p) {
		t.Fatal("legitimate packet rejected")
	}
	if got := rejects(); got != [3]uint64{} {
		t.Fatalf("legitimate packet counted as rejected: %v", got)
	}
	// Non-neighbor transmitter (high-power / relay mode defense).
	p = rep(9, 9, 66, 66, 1, 2)
	if check(p) {
		t.Fatal("non-neighbor accepted")
	}
	if got := rejects(); got != [3]uint64{1, 0, 0} {
		t.Fatalf("non-neighbor: rejections (non-neighbor, unknown-link, revoked) = %v", got)
	}
	// Unknown link: 2 claims prev hop 77, not in 2's announced list.
	p = rep(9, 9, 2, 77, 1, 3)
	if check(p) {
		t.Fatal("unknown-link packet accepted")
	}
	if got := rejects(); got != [3]uint64{1, 1, 0} {
		t.Fatalf("unknown link: rejections (non-neighbor, unknown-link, revoked) = %v", got)
	}
	// Revoked transmitter.
	n.table.Revoke(2)
	p = rep(9, 9, 2, 3, 1, 4)
	if check(p) {
		t.Fatal("revoked transmitter accepted")
	}
	if got := rejects(); got != [3]uint64{1, 1, 1} {
		t.Fatalf("revoked: rejections (non-neighbor, unknown-link, revoked) = %v", got)
	}
	// A sender Monitor did not resolve is looked up, to the same answers.
	for i, p := range []*packet.Packet{rep(9, 9, 3, 2, 1, 5), rep(9, 9, 66, 66, 1, 6), rep(9, 9, 3, 77, 1, 7), rep(9, 9, 2, 3, 1, 8)} {
		if got, want := n.engine.CheckInbound(p, Unresolved), i == 0; got != want {
			t.Fatalf("unresolved frame %d: accepted %v, want %v", i, got, want)
		}
	}
	if got := rejects(); got != [3]uint64{2, 2, 2} {
		t.Fatalf("unresolved: rejections (non-neighbor, unknown-link, revoked) = %v", got)
	}
}

func guardSetup(t *testing.T, cfg Config, ev Events) (*sim.Kernel, *testNode) {
	t.Helper()
	k := sim.New(1)
	ks := keys.NewKeyServer(1)
	n := newTestNode(k, ks, 1, cfg, ev)
	wire(n, map[field.NodeID][]field.NodeID{
		2: {1, 3, 9},
		3: {1, 2},
	})
	return k, n
}

func TestFabricationDetected(t *testing.T) {
	var acc []watch.Accusation
	cfg := testConfig()
	k, n := guardSetup(t, cfg, Events{Accusation: func(a watch.Accusation) { acc = append(acc, a) }})

	// Node 2 transmits a REP claiming prev hop 3, but guard 1 never heard
	// 3 transmit it: fabrication.
	n.engine.Monitor(rep(9, 9, 2, 3, 9, 7))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(acc) != 1 || acc[0].Reason != watch.ReasonFabrication || acc[0].Accused != 2 {
		t.Fatalf("accusations = %v", acc)
	}
}

func TestLegitimateForwardNotAccused(t *testing.T) {
	var acc []watch.Accusation
	cfg := testConfig()
	k, n := guardSetup(t, cfg, Events{Accusation: func(a watch.Accusation) { acc = append(acc, a) }})

	// Guard hears 3 transmit the REP to 2 (arming an expectation), then 2
	// forwards it: clean.
	n.engine.Monitor(rep(9, 9, 3, 3, 2, 7))
	k.RunFor(100 * time.Millisecond)
	n.engine.Monitor(rep(9, 9, 2, 3, 9, 7))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(acc) != 0 {
		t.Fatalf("clean forward accused: %v", acc)
	}
	st := n.engine.Buffer().Stats()
	if st.Matches != 1 {
		t.Fatalf("watch stats = %+v, want 1 match", st)
	}
}

func TestDropDetected(t *testing.T) {
	var acc []watch.Accusation
	cfg := testConfig()
	k, n := guardSetup(t, cfg, Events{Accusation: func(a watch.Accusation) { acc = append(acc, a) }})

	// Guard hears 3 send a REP toward 2; 2 never forwards.
	n.engine.Monitor(rep(9, 9, 3, 3, 2, 7))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(acc) != 1 || acc[0].Reason != watch.ReasonDrop || acc[0].Accused != 2 {
		t.Fatalf("accusations = %v", acc)
	}
}

func TestDestinationNotExpectedToForward(t *testing.T) {
	var acc []watch.Accusation
	cfg := testConfig()
	k, n := guardSetup(t, cfg, Events{Accusation: func(a watch.Accusation) { acc = append(acc, a) }})

	// REP whose final destination is 2 itself: 2 consumes it.
	n.engine.Monitor(rep(2, 2, 3, 3, 2, 7))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(acc) != 0 {
		t.Fatalf("destination accused of consuming its own REP: %v", acc)
	}
}

func TestReqFloodExpectations(t *testing.T) {
	var acc []watch.Accusation
	cfg := testConfig()
	k, n := guardSetup(t, cfg, Events{Accusation: func(a watch.Accusation) { acc = append(acc, a) }})

	// Guard hears 3 flood a REQ. Node 2 (common neighbor) should
	// rebroadcast; it does, so no accusation.
	n.engine.Monitor(req(9, 42, 3, 3, 7, 9, 3))
	k.RunFor(100 * time.Millisecond)
	n.engine.Monitor(req(9, 42, 2, 3, 7, 9, 3, 2))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(acc) != 0 {
		t.Fatalf("clean flood forward accused: %v", acc)
	}
}

func TestReqFloodDropDetected(t *testing.T) {
	var acc []watch.Accusation
	cfg := testConfig()
	k, n := guardSetup(t, cfg, Events{Accusation: func(a watch.Accusation) { acc = append(acc, a) }})
	n.engine.Monitor(req(9, 42, 3, 3, 7, 9, 3))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(acc) != 1 || acc[0].Reason != watch.ReasonDrop || acc[0].Accused != 2 {
		t.Fatalf("accusations = %v", acc)
	}
}

func TestReqFloodNoExpectationForNodesOnRoute(t *testing.T) {
	var acc []watch.Accusation
	cfg := testConfig()
	k, n := guardSetup(t, cfg, Events{Accusation: func(a watch.Accusation) { acc = append(acc, a) }})
	// Node 2 is already on the accumulated route: it has forwarded before
	// and will not forward again.
	n.engine.Monitor(req(9, 42, 3, 2, 7, 9, 2, 3))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, a := range acc {
		if a.Accused == 2 && a.Reason == watch.ReasonDrop {
			t.Fatalf("node on route accused of drop: %v", acc)
		}
	}
}

func TestThresholdRevokesAndAlerts(t *testing.T) {
	var revoked []field.NodeID
	var alertsTo []field.NodeID
	cfg := testConfig()
	k, n := guardSetup(t, cfg, Events{
		LocalRevocation: func(a field.NodeID) { revoked = append(revoked, a) },
		AlertSent:       func(_, to field.NodeID) { alertsTo = append(alertsTo, to) },
	})
	// Two fabrications (V_f=2 each) cross C_t=4.
	n.engine.Monitor(rep(9, 9, 2, 3, 9, 7))
	n.engine.Monitor(rep(9, 9, 2, 3, 9, 8))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(revoked) != 1 || revoked[0] != 2 {
		t.Fatalf("revocations = %v", revoked)
	}
	if n.table.IsNeighbor(2) {
		t.Fatal("accused still an active neighbor")
	}
	if !n.engine.IsIsolated(2) {
		t.Fatal("IsIsolated false after local revocation")
	}
	// Alerts go to each neighbor of 2 (announced list {1,3,9}) minus self.
	want := map[field.NodeID]bool{3: true, 9: true}
	if len(alertsTo) != 2 {
		t.Fatalf("alerts to %v", alertsTo)
	}
	for _, to := range alertsTo {
		if !want[to] {
			t.Fatalf("alert to unexpected node %d", to)
		}
	}
	// Outbound frames: the two alert packets, each signed and each sent
	// 1+maxAlertRetries times.
	if len(n.sent) != 2*(1+maxAlertRetries) {
		t.Fatalf("sent %d frames, want %d", len(n.sent), 2*(1+maxAlertRetries))
	}
	distinct := map[*packet.Packet]bool{}
	for _, p := range n.sent {
		if p.Type != packet.TypeAlert || len(p.MAC) == 0 {
			t.Fatalf("bad alert frame %v", p)
		}
		distinct[p] = true
	}
	if len(distinct) != 2 {
		t.Fatalf("sent %d distinct alerts, want 2", len(distinct))
	}
}

// alertFrom builds a signed alert from guard g accusing node accused,
// addressed to dst.
func alertFrom(t *testing.T, ks *keys.KeyServer, g, accused, dst field.NodeID, seq uint64) *packet.Packet {
	t.Helper()
	ring := keys.NewRing(g, ks)
	payload := []byte{0, 0, 0, byte(accused)}
	p := &packet.Packet{
		Type: packet.TypeAlert, Seq: seq, Origin: g, FinalDest: dst,
		Sender: g, PrevHop: g, Receiver: dst, Payload: payload,
	}
	if err := ring.Sign(p, dst); err != nil {
		t.Fatal(err)
	}
	return p
}

// alertSetup: node 1 has neighbors 2 (the future accused) and 3, 4 (guards
// of 2 — they appear in 2's announced neighbor list).
func alertSetup(t *testing.T, gamma int, ev Events) (*sim.Kernel, *keys.KeyServer, *testNode) {
	t.Helper()
	k := sim.New(1)
	ks := keys.NewKeyServer(1)
	cfg := testConfig()
	cfg.Gamma = gamma
	n := newTestNode(k, ks, 1, cfg, ev)
	wire(n, map[field.NodeID][]field.NodeID{
		2: {1, 3, 4},
		3: {1, 2},
		4: {1, 2},
	})
	return k, ks, n
}

func TestAlertsIsolateAfterGamma(t *testing.T) {
	var isolated []field.NodeID
	_, ks, n := alertSetup(t, 2, Events{
		Isolated: func(a field.NodeID) { isolated = append(isolated, a) },
	})
	n.engine.HandleAlert(alertFrom(t, ks, 3, 2, 1, 1))
	if n.engine.IsIsolated(2) {
		t.Fatal("isolated after a single alert with gamma=2")
	}
	if n.engine.AlertCount(2) != 1 {
		t.Fatalf("AlertCount = %d", n.engine.AlertCount(2))
	}
	n.engine.HandleAlert(alertFrom(t, ks, 4, 2, 1, 2))
	if !n.engine.IsIsolated(2) {
		t.Fatal("not isolated after gamma alerts")
	}
	if len(isolated) != 1 || isolated[0] != 2 {
		t.Fatalf("isolated events = %v", isolated)
	}
	if n.table.IsNeighbor(2) {
		t.Fatal("accused still active after isolation")
	}
	if st := n.engine.Stats(); st.Isolations != 1 || st.AlertsAccepted != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplicateAlertsFromSameGuardDoNotCount(t *testing.T) {
	_, ks, n := alertSetup(t, 2, Events{})
	n.engine.HandleAlert(alertFrom(t, ks, 3, 2, 1, 1))
	n.engine.HandleAlert(alertFrom(t, ks, 3, 2, 1, 2))
	n.engine.HandleAlert(alertFrom(t, ks, 3, 2, 1, 3))
	if n.engine.IsIsolated(2) {
		t.Fatal("duplicate alerts from one guard isolated the accused")
	}
	if n.engine.AlertCount(2) != 1 {
		t.Fatalf("AlertCount = %d", n.engine.AlertCount(2))
	}
}

func TestAlertBadMACRejected(t *testing.T) {
	_, ks, n := alertSetup(t, 1, Events{})
	p := alertFrom(t, ks, 3, 2, 1, 1)
	p.MAC[0] ^= 0xFF
	n.engine.HandleAlert(p)
	if n.engine.IsIsolated(2) {
		t.Fatal("forged alert isolated a node")
	}
	if st := n.engine.Stats(); st.AlertsRejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAlertFromNonGuardRejected(t *testing.T) {
	// Node 9 shares keys but is not a neighbor of the accused (absent
	// from 2's announced list): its alert must be ignored.
	_, ks, n := alertSetup(t, 1, Events{})
	n.table.AddDirect(9)
	n.table.SetNeighborSet(9, []field.NodeID{1})
	n.engine.HandleAlert(alertFrom(t, ks, 9, 2, 1, 1))
	if n.engine.IsIsolated(2) {
		t.Fatal("alert from non-guard isolated a node")
	}
}

func TestAlertAboutStrangerRejected(t *testing.T) {
	_, ks, n := alertSetup(t, 1, Events{})
	// Node 77 is not our neighbor; alert about it is irrelevant.
	n.engine.HandleAlert(alertFrom(t, ks, 3, 77, 1, 1))
	if st := n.engine.Stats(); st.AlertsRejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAlertNotAddressedToUsIgnored(t *testing.T) {
	_, ks, n := alertSetup(t, 1, Events{})
	p := alertFrom(t, ks, 3, 2, 4, 1) // addressed to node 4
	n.engine.HandleAlert(p)
	if n.engine.AlertCount(2) != 0 {
		t.Fatal("overheard alert for another node was counted")
	}
}

func TestAlertMalformedPayload(t *testing.T) {
	_, ks, n := alertSetup(t, 1, Events{})
	p := alertFrom(t, ks, 3, 2, 1, 1)
	p.Payload = []byte{1, 2}
	n.engine.HandleAlert(p)
	if st := n.engine.Stats(); st.AlertsRejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOutboundAllowed(t *testing.T) {
	k := sim.New(1)
	ks := keys.NewKeyServer(1)
	n := newTestNode(k, ks, 1, testConfig(), Events{})
	wire(n, map[field.NodeID][]field.NodeID{2: {1}})
	if !n.engine.OutboundAllowed(2) {
		t.Fatal("outbound to active neighbor denied")
	}
	n.table.Revoke(2)
	if n.engine.OutboundAllowed(2) {
		t.Fatal("outbound to revoked node allowed")
	}
}

func TestIsolationTimeRecorded(t *testing.T) {
	var k *sim.Kernel
	k, ks, n := alertSetup(t, 1, Events{})
	k.At(3*time.Second, func() {
		n.engine.HandleAlert(alertFrom(t, ks, 3, 2, 1, 1))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	at, ok := n.engine.IsolatedAt(2)
	if !ok || at != 3*time.Second {
		t.Fatalf("IsolatedAt = %v,%v", at, ok)
	}
}

func TestMonitorIgnoresNonControlAndStrangers(t *testing.T) {
	cfg := testConfig()
	k, n := guardSetup(t, cfg, Events{})
	// Data packets are not monitored.
	n.engine.Monitor(&packet.Packet{Type: packet.TypeData, Sender: 3, PrevHop: 3, Receiver: 2})
	// Control from an unknown node is not monitored.
	n.engine.Monitor(rep(9, 9, 55, 55, 2, 1))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.engine.Buffer().Stats().Expectations != 0 {
		t.Fatal("monitoring armed expectations for ignored traffic")
	}
}

func TestMonitorSkipsRevokedSender(t *testing.T) {
	cfg := testConfig()
	k, n := guardSetup(t, cfg, Events{})
	n.table.Revoke(3)
	n.engine.Monitor(rep(9, 9, 3, 3, 2, 7))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.engine.Buffer().Stats().Expectations != 0 {
		t.Fatal("expectations armed from a revoked sender's traffic")
	}
}

// TestRevokedSenderNeverReachesTheLog: two guards share one reception log
// and hear the same frame of neighbor 3 in one delivery batch. The guard
// that revoked 3 does not monitor it, so the log's entry for that
// transmission holds only the other guard, and only the other guard
// answers that it heard 3 send it.
func TestRevokedSenderNeverReachesTheLog(t *testing.T) {
	k := sim.New(1)
	ks := keys.NewKeyServer(1)
	cfg := testConfig()
	cfg.Detector.Watch.Log = watch.NewLog(k)
	revoker := newTestNode(k, ks, 1, cfg, Events{})
	other := newTestNode(k, ks, 4, cfg, Events{})
	for _, n := range []*testNode{revoker, other} {
		wire(n, map[field.NodeID][]field.NodeID{
			2: {1, 3, 4, 9},
			3: {1, 2, 4},
		})
	}
	revoker.table.Revoke(3)
	p := rep(9, 9, 3, 3, 2, 7)
	k.At(time.Millisecond, func() {
		revoker.engine.Monitor(p)
		other.engine.Monitor(p)
	})
	k.RunFor(2 * time.Millisecond)
	if revoker.heard(3, p.Key()) || revoker.engine.Buffer().HeardAny(p.Key()) {
		t.Fatal("the guard that revoked 3 answers from 3's transmission")
	}
	if !other.heard(3, p.Key()) {
		t.Fatal("the other guard lost its reception of 3's transmission")
	}
}

// TestFabricationRevokesSenderWithinOneFrame: the second fabrication by
// neighbor 2 crosses C_t inside Monitor, which revokes 2 before the REQ
// branch runs. The REQ branch still arms the frame's common neighbors
// (the revocation only takes 2 out of the active set), and CheckInbound,
// handed the index Monitor resolved, re-reads 2's status and rejects the
// frame as revoked, as a lookup would.
func TestFabricationRevokesSenderWithinOneFrame(t *testing.T) {
	k := sim.New(1)
	ks := keys.NewKeyServer(1)
	var revoked []field.NodeID
	n := newTestNode(k, ks, 1, testConfig(), Events{
		LocalRevocation: func(id field.NodeID) { revoked = append(revoked, id) },
	})
	wire(n, map[field.NodeID][]field.NodeID{
		2: {1, 3, 4, 5},
		3: {1, 2},
		4: {1, 2},
		5: {1, 2},
	})
	b := n.engine.Buffer()
	// 2 forwards REQs claiming 3 handed them over; the host guards 3->2
	// and heard no one send them. Each is a fabrication (V_f = 2, C_t = 4).
	for seq := uint64(1); seq <= 2; seq++ {
		p := req(9, 50, 2, 3, seq, 9, 3)
		before := b.Stats().Expectations
		sidx := n.engine.Monitor(p)
		if sidx != n.resolve(2) {
			t.Fatalf("seq %d: Monitor returned %d, want 2's index %d", seq, sidx, n.resolve(2))
		}
		if got := b.Stats().Expectations - before; got != 2 {
			t.Fatalf("seq %d armed %d expectations, want 2 (on 4 and 5)", seq, got)
		}
		revokedNow := seq == 2
		if got := n.table.IsRevoked(2); got != revokedNow {
			t.Fatalf("seq %d: 2 revoked %v, want %v", seq, got, revokedNow)
		}
		before = n.engine.Stats().RejectedRevoked
		if accepted := n.engine.CheckInbound(p, sidx); accepted == revokedNow {
			t.Fatalf("seq %d: CheckInbound accepted %v with 2 revoked %v", seq, accepted, revokedNow)
		}
		if got := n.engine.Stats().RejectedRevoked - before; (got == 1) != revokedNow || got > 1 {
			t.Fatalf("seq %d: %d revoked rejections", seq, got)
		}
		// The expectations are on 4 and 5, and only there.
		i4, i5 := n.resolve(4), n.resolve(5)
		if got := b.SettledSet(p.Key()); got != 1<<i4|1<<i5 {
			t.Fatalf("seq %d: settled set %b, want 4 (bit %d) and 5 (bit %d)", seq, got, i4, i5)
		}
	}
	if len(revoked) != 1 || revoked[0] != 2 {
		t.Fatalf("local revocations %v, want [2]", revoked)
	}
	if st := b.Stats(); st.Fabrications != 2 || st.Expectations != 4 {
		t.Fatalf("stats %+v: want 2 fabrications and 4 expectations", st)
	}
}
