package node

import (
	"testing"
	"time"

	"liteworp/internal/detector"
	"liteworp/internal/field"
	"liteworp/internal/medium"
	"liteworp/internal/neighbor"
	"liteworp/internal/sim"
)

// Tests for the crash/reboot lifecycle: a crash silences the radio, cancels
// the incarnation's timers and drops volatile state; a reboot rebuilds the
// stack and re-runs discovery against the persisted key ring.

func TestCrashSilencesNodeAndStopsDelivery(t *testing.T) {
	w := buildWorld(t, 5, true, nil)
	if err := w.nodes[1].SendData(5, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if w.collector.DataDelivered != 1 {
		t.Fatalf("setup: delivered = %d", w.collector.DataDelivered)
	}

	n2 := w.nodes[2]
	if err := n2.Crash(); err != nil {
		t.Fatal(err)
	}
	if !n2.Down() || n2.Operational() || n2.Crashes() != 1 {
		t.Fatalf("down=%v op=%v crashes=%d after crash", n2.Down(), n2.Operational(), n2.Crashes())
	}
	if !w.med.IsDown(2) {
		t.Fatal("medium not told about the crash")
	}
	// Node 2 is the source's only radio neighbor: nothing gets across
	// while it is down, and the source's MAC-level send failures pile up.
	for i := 0; i < 5; i++ {
		_ = w.nodes[1].SendData(5, []byte("b"))
		if err := w.kernel.RunFor(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if w.collector.DataDelivered != 1 {
		t.Fatalf("delivered = %d with the first hop down, want 1", w.collector.DataDelivered)
	}
	// The source noticed the dead next hop and evicted the cached route.
	if w.nodes[1].Router().HasRoute(5) {
		t.Fatal("source kept its cached route through the crashed next hop")
	}
}

func TestCrashRebootErrorPaths(t *testing.T) {
	k := sim.New(1)
	f := field.New(100, 60, 30)
	if err := f.Place(1, field.Point{X: 10, Y: 0}); err != nil {
		t.Fatal(err)
	}
	med := medium.New(k, f, medium.Config{BandwidthBps: 250_000})
	n := New(1, testConfig(true), testDeps(k, med, f))

	if err := n.Crash(); err == nil {
		t.Fatal("crash before Start accepted")
	}
	if err := n.Reboot(); err == nil {
		t.Fatal("reboot while up accepted")
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	if err := n.Reboot(); err == nil {
		t.Fatal("reboot of a running node accepted")
	}
	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := n.Crash(); err == nil {
		t.Fatal("double crash accepted")
	}
	if err := n.Reboot(); err != nil {
		t.Fatal(err)
	}
	if err := n.Reboot(); err == nil {
		t.Fatal("double reboot accepted")
	}
	if n.Crashes() != 1 {
		t.Fatalf("crashes = %d, want 1", n.Crashes())
	}
}

func TestCrashMidDiscoveryCancelsTimers(t *testing.T) {
	// Crash a node in the middle of its (re)discovery window. The scope
	// sweep must cancel the phase timers: the node never turns operational,
	// no matter how long the clock runs.
	w := buildWorld(t, 3, true, nil)
	n2 := w.nodes[2]
	if err := n2.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := n2.Reboot(); err != nil {
		t.Fatal(err)
	}
	// Discovery completes at neighbor.DiscoveryTime = 4s; crash at 1s.
	if err := w.kernel.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := n2.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n2.Operational() {
		t.Fatal("discovery completed on a crashed node (phase timer not cancelled)")
	}
	// A final reboot still works, on a fresh scope.
	if err := n2.Reboot(); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !n2.Operational() {
		t.Fatal("discovery did not complete after the final reboot")
	}
	if n2.Crashes() != 2 {
		t.Fatalf("crashes = %d, want 2", n2.Crashes())
	}
}

func TestRebootRejoinsAndRecoversDelivery(t *testing.T) {
	w := buildWorld(t, 5, true, nil)
	if err := w.nodes[1].SendData(5, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	n3 := w.nodes[3]
	if err := n3.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := n3.Reboot(); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !n3.Operational() {
		t.Fatal("rebooted node did not finish rediscovery")
	}
	// The rebuilt table re-earned both radio neighbors.
	for _, id := range []field.NodeID{2, 4} {
		if !n3.Table().IsNeighbor(id) {
			t.Fatalf("rebooted node missing neighbor %d: %v", id, n3.Table().Neighbors())
		}
	}
	// Its neighbors re-announced their lists in response to the fresh
	// HELLO, so the rebooted node regained the second-hop knowledge its
	// two-hop inbound checks depend on.
	if !n3.Table().KnowsLink(1, 2) || !n3.Table().KnowsLink(5, 4) {
		t.Fatal("rebooted node did not regain two-hop knowledge")
	}
	// Delivery across the rebooted relay works again.
	if err := w.nodes[1].SendData(5, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if w.collector.DataDelivered != 2 {
		t.Fatalf("delivered = %d after reboot, want 2", w.collector.DataDelivered)
	}
}

func TestRebootRefreshesStaleEntriesAtNeighbors(t *testing.T) {
	// While a node is down its guards mark it stale (dead-silence
	// discriminator). Its post-reboot authenticated neighbor-list
	// announcement must flip those entries back to active.
	w := buildWorld(t, 3, true, nil)
	if !w.nodes[1].Table().MarkStale(2) {
		t.Fatal("setup: could not mark 2 stale at node 1")
	}
	n2 := w.nodes[2]
	if err := n2.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := n2.Reboot(); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	tb := w.nodes[1].Table()
	if tb.IsStale(2) || !tb.IsNeighbor(2) {
		t.Fatal("stale entry for the rebooted node not refreshed")
	}
}

// TestOneIndexPerIncarnation pins the stack's sharing contract: the router,
// the watch buffer and a rival detector's scoreboard all key their
// per-neighbor state by the incarnation's neighbor-table index, every
// guard records on the scenario's one reception log, and a reboot's fresh
// stack holds a fresh index.
func TestOneIndexPerIncarnation(t *testing.T) {
	w := buildWorld(t, 3, true, nil)
	check := func(n *Node, when string) {
		t.Helper()
		idx := n.Table().Index()
		if n.Router().Index() != idx {
			t.Fatalf("%s: node %d's router keeps its own index", when, n.ID())
		}
		b := n.Engine().Buffer()
		if b.Index() != idx {
			t.Fatalf("%s: node %d's watch buffer keeps its own index", when, n.ID())
		}
		if b.Config().Log != w.deps.Log {
			t.Fatalf("%s: node %d's guard records on its own log", when, n.ID())
		}
	}
	for _, id := range w.topo.IDs() {
		check(w.nodes[id], "deployed")
	}

	n := w.nodes[2]
	old := n.Table().Index()
	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := n.Reboot(); err != nil {
		t.Fatal(err)
	}
	if n.Table().Index() == old {
		t.Fatal("the rebooted stack reuses the crashed incarnation's index")
	}
	check(n, "rebooted")

	for _, kind := range []string{detector.KindRange, detector.KindZScore} {
		cfg := testConfig(true)
		cfg.Core.Detector.Kind = kind
		rival := New(9, cfg, w.deps)
		board, ok := rival.Engine().Detector().(interface{ Index() *neighbor.Index })
		if !ok || board.Index() != rival.Table().Index() {
			t.Fatalf("the %s detector's scoreboard keeps its own index", kind)
		}
	}
}
