package core

import (
	"testing"

	"liteworp/internal/field"
	"liteworp/internal/keys"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
	"liteworp/internal/watch"
)

func TestRecordOwnSendPreventsSelfOriginFalseAccusation(t *testing.T) {
	var acc []watch.Accusation
	cfg := testConfig()
	k, n := guardSetup(t, cfg, Events{Accusation: func(a watch.Accusation) { acc = append(acc, a) }})

	// We (node 1) originate a REQ; neighbor 2 forwards it claiming prev
	// hop 1. Without RecordOwnSend this is a false fabrication.
	req := req(1, 42, 1, 1, 7, 1)
	n.engine.RecordOwnSend(req)
	fwd := req.Clone()
	fwd.Sender = 2
	fwd.PrevHop = 1
	fwd.Route = []field.NodeID{1, 2}
	n.engine.Monitor(fwd)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, a := range acc {
		if a.Reason == watch.ReasonFabrication {
			t.Fatalf("origin accused its own forwarder: %+v", a)
		}
	}
}

func TestRecordOwnSendIgnoresData(t *testing.T) {
	cfg := testConfig()
	_, n := guardSetup(t, cfg, Events{})
	n.engine.RecordOwnSend(&packet.Packet{Type: packet.TypeData, Seq: 1, Sender: 1})
	if n.engine.Buffer().HeardAny(packet.Key{Type: packet.TypeData, Origin: 0, Seq: 1}) {
		t.Fatal("data packets must not enter the heard cache")
	}
}

func TestStrictFabricationCheck(t *testing.T) {
	// Strict mode: hearing the packet from a *different* node does not
	// excuse a forward claiming a link we guard.
	var acc []watch.Accusation
	cfg := testConfig()
	cfg.Detector.StrictFabricationCheck = true
	k := sim.New(1)
	ks := keys.NewKeyServer(1)
	n := newTestNode(k, ks, 1, cfg, Events{Accusation: func(a watch.Accusation) { acc = append(acc, a) }})
	wire(n, map[field.NodeID][]field.NodeID{
		2: {1, 3, 9},
		3: {1, 2},
		9: {1, 2},
	})
	// Node 9 transmits the REP toward 2 — we hear it.
	n.engine.Monitor(rep(7, 7, 9, 9, 2, 5))
	// Node 2 forwards claiming it came from 3 (whom we never heard).
	n.engine.Monitor(rep(7, 7, 2, 3, 1, 5))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	foundFab := false
	for _, a := range acc {
		if a.Reason == watch.ReasonFabrication && a.Accused == 2 {
			foundFab = true
		}
	}
	if !foundFab {
		t.Fatal("strict mode missed the per-link fabrication")
	}
}

func TestRobustFabricationToleratesMissedLink(t *testing.T) {
	// Default mode: the same trace produces no accusation because the
	// packet was heard on the air (from node 9).
	var acc []watch.Accusation
	cfg := testConfig()
	k := sim.New(1)
	ks := keys.NewKeyServer(1)
	n := newTestNode(k, ks, 1, cfg, Events{Accusation: func(a watch.Accusation) { acc = append(acc, a) }})
	wire(n, map[field.NodeID][]field.NodeID{
		2: {1, 3, 9},
		3: {1, 2},
		9: {1, 2},
	})
	n.engine.Monitor(rep(7, 7, 9, 9, 2, 5))
	n.engine.Monitor(rep(7, 7, 2, 3, 1, 5))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, a := range acc {
		if a.Reason == watch.ReasonFabrication {
			t.Fatalf("robust mode accused despite the packet being on the air: %+v", a)
		}
	}
}

func TestDisableTwoHopCheck(t *testing.T) {
	cfg := testConfig()
	cfg.DisableTwoHopCheck = true
	k := sim.New(1)
	ks := keys.NewKeyServer(1)
	n := newTestNode(k, ks, 1, cfg, Events{})
	wire(n, map[field.NodeID][]field.NodeID{2: {1, 3}})
	// Prev hop 77 is not in 2's announced list — normally rejected.
	p := rep(9, 9, 2, 77, 1, 3)
	if !n.engine.CheckInbound(p, Unresolved) {
		t.Fatal("two-hop check still active despite ablation flag")
	}
}

func TestDisableDropDetection(t *testing.T) {
	var acc []watch.Accusation
	cfg := testConfig()
	cfg.Detector.DisableDropDetection = true
	k := sim.New(1)
	ks := keys.NewKeyServer(1)
	n := newTestNode(k, ks, 1, cfg, Events{Accusation: func(a watch.Accusation) { acc = append(acc, a) }})
	wire(n, map[field.NodeID][]field.NodeID{
		2: {1, 3, 9},
		3: {1, 2},
	})
	// A REP toward 2 that 2 never forwards: normally a drop accusation.
	n.engine.Monitor(rep(9, 9, 3, 3, 2, 7))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(acc) != 0 {
		t.Fatalf("drop detection still active: %v", acc)
	}
	if n.engine.Buffer().Stats().Expectations != 0 {
		t.Fatal("expectations armed despite ablation flag")
	}
}

func TestSuspectSenderSuppressesExpectations(t *testing.T) {
	// Once an alert about node 3 arrives, its transmissions no longer arm
	// expectations against its forwarders.
	cfg := testConfig()
	k, ks, n := alertSetup(t, 2, Events{})
	n.engine.HandleAlert(alertFrom(t, ks, 3, 2, 1, 1))
	if n.engine.AlertCount(2) != 1 {
		t.Fatal("alert not stored")
	}
	// Node 2 (the suspect) transmits a REP toward 3; normally we'd expect
	// 3 to forward it.
	n.engine.Monitor(rep(9, 9, 2, 2, 3, 7))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.engine.Buffer().Stats().Expectations != 0 {
		t.Fatal("expectation armed for a suspect's packet")
	}
	_ = cfg
}

func TestRepNextHopSuspectSuppressesExpectation(t *testing.T) {
	// REP whose route says the forwarder must hand it to a node we have
	// alerts about: no expectation (the forwarder may rightly refuse).
	_, ks, n := alertSetup(t, 2, Events{})
	// Receive an alert about node 2 from guard 3.
	n.engine.HandleAlert(alertFrom(t, ks, 3, 2, 1, 1))
	// Node 4 transmits a REP to node 3; 3's next hop per the route is the
	// suspect node 2.
	p := rep(9, 9, 4, 4, 3, 8)
	p.Route = []field.NodeID{9, 2, 3, 4}
	n.engine.Monitor(p)
	if n.engine.Buffer().Stats().Expectations != 0 {
		t.Fatal("expectation armed despite suspect next hop")
	}
}

func TestEndorsementAlertsOnGammaIsolation(t *testing.T) {
	// After gamma alerts isolate node 2, we relay the verdict to 2's
	// other neighbors.
	var sentTo []field.NodeID
	_, ks, n := alertSetup(t, 2, Events{AlertSent: func(_, to field.NodeID) { sentTo = append(sentTo, to) }})
	n.engine.HandleAlert(alertFrom(t, ks, 3, 2, 1, 1))
	if len(sentTo) != 0 {
		t.Fatal("endorsement before gamma")
	}
	n.engine.HandleAlert(alertFrom(t, ks, 4, 2, 1, 2))
	if !n.engine.IsIsolated(2) {
		t.Fatal("not isolated at gamma")
	}
	// 2's announced neighbors are {1,3,4}; we endorse to 3 and 4.
	if len(sentTo) != 2 {
		t.Fatalf("endorsements to %v, want 2 targets", sentTo)
	}
}
