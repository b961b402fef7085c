package liteworp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"liteworp/internal/trace"
)

func TestAddNodeAtRequiresDynamicJoin(t *testing.T) {
	p := fastParams()
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddNodeAt(10, 10); err == nil {
		t.Fatal("AddNodeAt accepted without DynamicJoin")
	}
}

func TestDynamicJoinIntegratesNewNode(t *testing.T) {
	p := fastParams()
	p.DynamicJoin = true
	p.NumMalicious = 0
	p.Attack = AttackNone
	p.CollisionPc0 = 0 // deterministic handshake for the assertion
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	// Let the initial network settle.
	if err := s.RunFor(s.OperationalStart() + 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// Drop the newcomer next to an existing node so it has neighbors.
	anchor := s.NodeIDs()[0]
	ap, _ := s.topo.Position(anchor)
	id, err := s.AddNodeAt(ap.X+5, ap.Y+5)
	if err != nil {
		t.Fatal(err)
	}
	// Give the join handshake time (2x reply window + slack).
	if err := s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	joiner := s.Node(id)
	if !joiner.Operational() {
		t.Fatal("joiner discovery incomplete")
	}
	nbs := joiner.Table().Neighbors()
	if len(nbs) == 0 {
		t.Fatal("joiner learned no neighbors")
	}
	// The join must be mutual: every neighbor the joiner learned must also
	// have adopted the joiner.
	for _, nb := range nbs {
		if !s.Node(nb).Table().IsNeighbor(id) {
			t.Fatalf("node %d did not adopt joiner %d", nb, id)
		}
		// And the anchor's re-announcement must have propagated the new
		// link into second-hop knowledge of some third party.
	}
	// Second-hop knowledge: a neighbor-of-a-neighbor should now accept
	// forwards across the new link.
	for _, nb := range nbs {
		for _, third := range s.Node(nb).Table().Neighbors() {
			if third == id {
				continue
			}
			tn := s.Node(third)
			if tn == nil {
				continue
			}
			if tn.Table().KnowsLink(id, nb) {
				return // found a third party that learned the new link
			}
		}
	}
	t.Fatal("no third party learned the new link from re-announcements")
}

func TestDynamicJoinerCanRouteData(t *testing.T) {
	p := fastParams()
	p.DynamicJoin = true
	p.NumMalicious = 0
	p.Attack = AttackNone
	p.CollisionPc0 = 0
	p.Lambda = 0 // no ambient traffic: only the joiner's packet counts
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(s.OperationalStart() + 10*time.Second); err != nil {
		t.Fatal(err)
	}
	anchor := s.NodeIDs()[0]
	ap, _ := s.topo.Position(anchor)
	id, err := s.AddNodeAt(ap.X+3, ap.Y+3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	before := s.Results().DataDelivered

	// The joiner sends to a far node, exercising discovery through its
	// freshly joined neighborhood.
	var far NodeID
	maxHops := -1
	for _, other := range s.NodeIDs() {
		if other == id {
			continue
		}
		if h := s.topo.HopDistance(id, other); h > maxHops {
			maxHops, far = h, other
		}
	}
	if err := s.Node(id).SendData(far, []byte("from the newcomer")); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.Results().DataDelivered; got != before+1 {
		t.Fatalf("joiner's packet not delivered (delivered %d -> %d, dest %d at %d hops)",
			before, got, far, maxHops)
	}
}

// TestJoinerAccusationsReachTheTrace: a joined node runs with the same
// facilities as a deployed one, the trace hooks included, so its guard's
// accusations appear in the scenario trace. The run is the dynamic-join
// golden trace's, in which joiners accuse.
func TestJoinerAccusationsReachTheTrace(t *testing.T) {
	p := DefaultParams()
	p.NumNodes = 30
	p.Seed = 2024
	p.Duration = 120 * time.Second
	p.DynamicJoin = true
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.EnableTrace(&buf)
	scheduleJoiners(t, s)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev trace.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == trace.KindAccuse && ev.From > uint32(p.NumNodes) {
			return
		}
	}
	t.Fatal("no joined node's accusation reached the trace")
}
