package core

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/keys"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
	"liteworp/internal/watch"
)

// Tests for the graceful-degradation mechanics: the dead-silence drop
// discriminator (crashed neighbors are marked stale instead of accused),
// stale recovery on evidence of life, and alert retransmission.

func TestDeadSilentNeighborMarkedStaleNotAccused(t *testing.T) {
	var acc []watch.Accusation
	k, n := guardSetup(t, testConfig(), Events{
		Accusation: func(a watch.Accusation) { acc = append(acc, a) },
	})

	// Node 2 transmits once — the guard has heard it alive.
	n.engine.Monitor(rep(9, 9, 2, 2, 3, 1))
	// 2 crashes: total silence from here on. Much later, 3 hands 2 a REP
	// to forward; the expectation expires against a long-dead node.
	k.RunFor(30 * time.Second)
	n.engine.Monitor(rep(9, 9, 3, 3, 2, 7))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, a := range acc {
		if a.Accused == 2 && a.Reason == watch.ReasonDrop {
			t.Fatalf("dead-silent node accused of dropping: %v", acc)
		}
	}
	if !n.table.IsStale(2) {
		t.Fatal("table does not show 2 stale")
	}
	if st := n.engine.Buffer().Stats(); st.FilteredDrops != 1 {
		t.Fatalf("watch stats = %+v, want 1 filtered drop", st)
	}
	if st := n.engine.Stats(); st.StaleMarked != 1 {
		t.Fatalf("engine stats = %+v, want 1 stale marking", st)
	}
}

func TestRecentlyHeardNeighborStillAccused(t *testing.T) {
	// A live attacker keeps transmitting (it must, to attract routes), so
	// its silence clock keeps resetting and drop detection is unaffected.
	var acc []watch.Accusation
	k, n := guardSetup(t, testConfig(), Events{Accusation: func(a watch.Accusation) { acc = append(acc, a) }})

	n.engine.Monitor(rep(9, 9, 2, 2, 3, 1)) // heard 2 just now
	n.engine.Monitor(rep(9, 9, 3, 3, 2, 7)) // 2 should forward this
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range acc {
		if a.Accused == 2 && a.Reason == watch.ReasonDrop {
			found = true
		}
	}
	if !found {
		t.Fatalf("recently heard dropper not accused: %v", acc)
	}
	if n.table.IsStale(2) {
		t.Fatal("recently heard node marked stale")
	}
}

func TestNeverHeardNeighborStillAccused(t *testing.T) {
	// A neighbor the guard has never heard transmit gets no crash benefit:
	// silence since deployment is indistinguishable from an external
	// attacker that only injects through a wormhole.
	var acc []watch.Accusation
	k, n := guardSetup(t, testConfig(), Events{Accusation: func(a watch.Accusation) { acc = append(acc, a) }})

	k.RunFor(30 * time.Second)
	n.engine.Monitor(rep(9, 9, 3, 3, 2, 7))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range acc {
		if a.Accused == 2 && a.Reason == watch.ReasonDrop {
			found = true
		}
	}
	if !found {
		t.Fatalf("never-heard dropper not accused: %v", acc)
	}
}

func TestNoteAliveRefreshesStaleEntry(t *testing.T) {
	k, n := guardSetup(t, testConfig(), Events{})
	n.engine.Monitor(rep(9, 9, 2, 2, 3, 1))
	k.RunFor(30 * time.Second)
	n.engine.Monitor(rep(9, 9, 3, 3, 2, 7))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !n.table.IsStale(2) {
		t.Fatal("setup: 2 not stale")
	}
	// Any overheard transmission from 2 proves it is back.
	n.engine.Monitor(rep(9, 9, 2, 2, 3, 20))
	if n.table.IsStale(2) || !n.table.IsNeighbor(2) {
		t.Fatal("overheard transmission did not refresh stale entry")
	}
}

func TestNoExpectationArmedOnStaleTarget(t *testing.T) {
	k, n := guardSetup(t, testConfig(), Events{})
	n.table.MarkStale(2)
	// 3 hands the presumed-dead 2 a REP; the guard should not expect a
	// forward from a crashed node.
	n.engine.Monitor(rep(9, 9, 3, 3, 2, 7))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := n.engine.Buffer().Stats(); st.Expectations != 0 {
		t.Fatalf("watch stats = %+v, want no expectations on a stale target", st)
	}
}

func TestAlertRetransmission(t *testing.T) {
	var retries []int
	k, n := guardSetup(t, testConfig(), Events{
		AlertRetry: func(_, _ field.NodeID, attempt int) { retries = append(retries, attempt) },
	})
	// Two fabrications cross C_t=4; alerts go to 2's neighbors {3, 9}.
	n.engine.Monitor(rep(9, 9, 2, 3, 9, 7))
	n.engine.Monitor(rep(9, 9, 2, 3, 9, 8))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 originals + 2 retries each = 6 frames on the air.
	alerts := 0
	for _, p := range n.sent {
		if p.Type != packet.TypeAlert || len(p.MAC) == 0 {
			t.Fatalf("bad alert frame %v", p)
		}
		alerts++
	}
	if alerts != 6 {
		t.Fatalf("sent %d alert frames, want 6 (2 originals + 4 retries)", alerts)
	}
	st := n.engine.Stats()
	if st.AlertsSent != 2 {
		t.Fatalf("AlertsSent = %d, want 2 (retries counted separately)", st.AlertsSent)
	}
	if st.AlertRetries != 4 {
		t.Fatalf("AlertRetries = %d, want 4", st.AlertRetries)
	}
	if len(retries) != 4 {
		t.Fatalf("AlertRetry events = %v, want 4", retries)
	}
}

func TestAlertRetryIdempotentAtReceiver(t *testing.T) {
	// A receiver that gets the same guard's alert three times still counts
	// one distinct guard — retransmission never inflates gamma.
	k := sim.New(1)
	ks := keys.NewKeyServer(1)
	n := newTestNode(k, ks, 1, testConfig(), Events{})
	wire(n, map[field.NodeID][]field.NodeID{
		2: {1, 3, 7},
		3: {1, 2},
		7: {1, 2},
	})
	a := alertFrom(t, ks, 3, 2, 1, 1)
	n.engine.HandleAlert(a)
	n.engine.HandleAlert(a.Clone())
	n.engine.HandleAlert(a.Clone())
	if got := n.engine.AlertCount(2); got != 1 {
		t.Fatalf("AlertCount = %d after duplicate alerts, want 1", got)
	}
	if n.engine.IsIsolated(2) {
		t.Fatal("isolated below gamma from duplicated alerts")
	}
}
