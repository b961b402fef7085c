package node

import (
	"testing"
	"time"

	"liteworp/internal/attack"
	"liteworp/internal/core"
	"liteworp/internal/detector"
	"liteworp/internal/field"
	"liteworp/internal/keys"
	"liteworp/internal/medium"
	"liteworp/internal/metrics"
	"liteworp/internal/packet"
	"liteworp/internal/routing"
	"liteworp/internal/sim"
	"liteworp/internal/watch"
)

// world is a hand-wired multi-node test network.
type world struct {
	kernel    *sim.Kernel
	topo      *field.Field
	med       *medium.Medium
	collector *metrics.Collector
	deps      Deps
	nodes     map[field.NodeID]*Node
}

// testConfig is the stack every test node runs: fast watch parameters
// (tau 300 ms, C_t 6), gamma 2, the paper's 50 s TOutRoute and a 5 ms REQ
// backoff.
func testConfig(liteworp bool) Config {
	return Config{
		Liteworp: liteworp,
		Core: core.Config{
			Detector: detector.Config{
				Watch: watch.Config{Timeout: 300 * time.Millisecond, FabricationIncrement: 3, DropIncrement: 1, Threshold: 6, Window: 100 * time.Second},
			},
			Gamma: 2,
		},
		Routing: routing.Config{RouteTimeout: 50 * time.Second, ForwardJitter: 5 * time.Millisecond},
	}
}

// testDeps returns the facilities a scenario would share among its nodes:
// a key server, a collector, one reception log, one flood table, the
// topology, and trace hooks that discard what they observe. It marks no
// node malicious.
func testDeps(k *sim.Kernel, med *medium.Medium, f *field.Field) Deps {
	return Deps{
		Kernel:       k,
		Medium:       med,
		Keys:         keys.NewKeyServer(5),
		Collector:    metrics.NewCollector(),
		Log:          watch.NewLog(k),
		Floods:       routing.NewFloods(1),
		Topo:         f,
		OnAlertRetry: func(_, _, _ field.NodeID, _ int) {},
		OnAccusation: func(field.NodeID, watch.Accusation) {},
		OnIsolated:   func(_, _ field.NodeID, _ bool) {},
	}
}

// testAttack is the paper's attacker for the given mode: a forged previous
// hop at the tunnel exit and 3x range in high-power mode.
func testAttack(mode attack.Mode) attack.Config {
	return attack.Config{
		Mode:            mode,
		PrevHop:         attack.StrategyForgeNeighbor,
		HighPowerFactor: 3,
	}
}

// buildWorld places nodes on a line 20m apart (range 30m) and starts them.
// malicious maps node IDs to attack configs.
func buildWorld(t *testing.T, n int, liteworp bool, malicious map[field.NodeID]*attack.Config) *world {
	t.Helper()
	return buildTracedWorld(t, n, liteworp, malicious, nil)
}

// buildTracedWorld is buildWorld with a medium trace installed before the
// first frame goes on the air (nil installs none).
func buildTracedWorld(t *testing.T, n int, liteworp bool, malicious map[field.NodeID]*attack.Config, tr medium.TraceFunc) *world {
	t.Helper()
	k := sim.New(1)
	f := field.New(float64(n*20+40), 60, 30)
	for i := 1; i <= n; i++ {
		if err := f.Place(field.NodeID(i), field.Point{X: float64(i * 20), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	med := medium.New(k, f, medium.Config{BandwidthBps: 250_000})
	med.SetTrace(tr)
	deps := testDeps(k, med, f)
	deps.MaliciousSet = make(map[field.NodeID]bool)
	var colluders []field.NodeID
	for id := range malicious {
		deps.MaliciousSet[id] = true
		colluders = append(colluders, id)
	}

	w := &world{kernel: k, topo: f, med: med, collector: deps.Collector, deps: deps, nodes: make(map[field.NodeID]*Node)}
	for _, id := range f.IDs() {
		cfg := testConfig(liteworp)
		if ac, ok := malicious[id]; ok {
			cfg.Attack = ac
			cfg.Colluders = colluders
		}
		w.nodes[id] = New(id, cfg, deps)
	}
	for _, id := range f.IDs() {
		if err := w.nodes[id].Start(); err != nil {
			t.Fatal(err)
		}
	}
	// Let discovery complete (default config: 2s window, done at 4s).
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNodeLifecycle(t *testing.T) {
	w := buildWorld(t, 3, true, nil)
	n := w.nodes[1]
	if n.ID() != 1 {
		t.Fatalf("ID = %d", n.ID())
	}
	if !n.Operational() {
		t.Fatal("node not operational after discovery window")
	}
	if n.Malicious() || n.Attacker() != nil {
		t.Fatal("honest node claims attacker role")
	}
	if n.Engine() == nil {
		t.Fatal("LITEWORP node missing engine")
	}
	if n.Router() == nil || n.Table() == nil {
		t.Fatal("missing stack parts")
	}
	if err := n.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
}

func TestBaselineNodeHasNoEngine(t *testing.T) {
	w := buildWorld(t, 2, false, nil)
	if w.nodes[1].Engine() != nil {
		t.Fatal("baseline node has an engine")
	}
}

func TestEndToEndDataDelivery(t *testing.T) {
	w := buildWorld(t, 5, true, nil)
	if err := w.nodes[1].SendData(5, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if w.collector.DataOriginated != 1 || w.collector.DataDelivered != 1 {
		t.Fatalf("originated=%d delivered=%d", w.collector.DataOriginated, w.collector.DataDelivered)
	}
	if w.collector.RoutesEstablished != 1 {
		t.Fatalf("routes = %d", w.collector.RoutesEstablished)
	}
	if w.collector.PhantomRoutes != 0 || w.collector.WormholeRoutes != 0 {
		t.Fatal("clean route misclassified")
	}
}

func TestDiscoveryBuildsTablesThroughNodeDispatch(t *testing.T) {
	w := buildWorld(t, 4, true, nil)
	for _, id := range w.topo.IDs() {
		got := w.nodes[id].Table().Neighbors()
		want := w.topo.Neighbors(id)
		if len(got) != len(want) {
			t.Fatalf("node %d: neighbors %v, want %v", id, got, want)
		}
	}
	// Two-hop knowledge present: node 1 knows 3 is a neighbor of 2.
	if !w.nodes[1].Table().KnowsLink(3, 2) {
		t.Fatal("two-hop knowledge missing")
	}
}

func TestMaliciousNodeDropsDataAfterWormhole(t *testing.T) {
	// Nodes 1..7 in a line; 2 and 6 are colluders with an OOB tunnel.
	ac2 := testAttack(attack.ModeOutOfBand)
	ac6 := testAttack(attack.ModeOutOfBand)
	w := buildWorld(t, 7, false, map[field.NodeID]*attack.Config{2: &ac2, 6: &ac6})
	if err := w.med.AddTunnel(2, 6, 0); err != nil {
		t.Fatal(err)
	}
	// Route 1 -> 7: the tunneled REQ gives route 1-2-6-7, which wins.
	if err := w.nodes[1].SendData(7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	route := w.nodes[1].Router().Route(7)
	if len(route) != 4 || route[1] != 2 || route[2] != 6 {
		t.Fatalf("wormhole did not capture the route: %v", route)
	}
	if w.collector.WormholeRoutes != 1 {
		t.Fatalf("WormholeRoutes = %d", w.collector.WormholeRoutes)
	}
	if w.collector.PhantomRoutes != 1 {
		t.Fatalf("PhantomRoutes = %d (2->6 is not a radio link)", w.collector.PhantomRoutes)
	}
	// The data died inside the wormhole.
	if w.collector.DataDelivered != 0 {
		t.Fatal("data delivered through a dropping wormhole")
	}
	if w.collector.DataDroppedAttack == 0 {
		t.Fatal("wormhole drop not recorded")
	}
}

func TestLiteworpNodeRejectsWormholeRoute(t *testing.T) {
	// Same topology but the honest nodes run LITEWORP: the tunneled REQ
	// claiming prev-hop colluder is rejected outright (unknown link), so
	// the route goes the long way.
	ac2 := testAttack(attack.ModeOutOfBand)
	ac2.PrevHop = attack.StrategyClaimColluder
	ac6 := ac2
	w := buildWorld(t, 7, true, map[field.NodeID]*attack.Config{2: &ac6, 6: &ac2})
	if err := w.med.AddTunnel(2, 6, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.nodes[1].SendData(7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.kernel.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The shortcut 1-2-6-7 must NOT form: the claimed colluder prev-hop
	// fails the two-hop check at every receiver. (On a line topology the
	// colluders still sit on the only physical path, so they can still
	// black-hole data — route capture is what LITEWORP's checks prevent.)
	route := w.nodes[1].Router().Route(7)
	if len(route) == 4 {
		t.Fatalf("wormhole shortcut accepted under LITEWORP: %v", route)
	}
	if w.collector.PhantomRoutes != 0 {
		t.Fatalf("phantom route formed under LITEWORP")
	}
}

func TestTransmitBlocksRevokedNextHop(t *testing.T) {
	w := buildWorld(t, 3, true, nil)
	n2 := w.nodes[2]
	// Node 2 revokes node 3 and then tries to forward data to it.
	n2.Table().Revoke(3)
	p := &packet.Packet{
		Type: packet.TypeData, Seq: 1, Origin: 1, FinalDest: 3,
		Sender: 2, PrevHop: 1, Receiver: 3, Route: []field.NodeID{1, 2, 3},
	}
	if err := n2.transmit(p); err != nil {
		t.Fatal(err)
	}
	if w.collector.DataBlockedRevoked != 1 {
		t.Fatalf("DataBlockedRevoked = %d", w.collector.DataBlockedRevoked)
	}
	if w.collector.DataDroppedAttack != 1 {
		t.Fatal("blocked data not counted toward the drop curve")
	}
}

func TestInboundRejectionCountsData(t *testing.T) {
	w := buildWorld(t, 3, true, nil)
	n2 := w.nodes[2]
	// A frame from a stranger node (99) addressed to node 2.
	p := &packet.Packet{
		Type: packet.TypeData, Seq: 1, Origin: 99, FinalDest: 2,
		Sender: 99, PrevHop: 99, Receiver: 2,
	}
	n2.Receive(p)
	if w.collector.DataRejected != 1 {
		t.Fatalf("DataRejected = %d", w.collector.DataRejected)
	}
	if w.collector.DataDelivered != 0 {
		t.Fatal("stranger data delivered")
	}
}

func TestFalseAccusationClassification(t *testing.T) {
	w := buildWorld(t, 4, true, nil)
	// Fabricate an accusation pathway: node 1's engine accuses honest
	// node 2 via its buffer (simulating a collision artifact).
	e := w.nodes[1].Engine()
	e.Buffer().AccuseFabrication(2, packet.Key{Type: packet.TypeRouteReply, Origin: 9, Seq: 1})
	if w.collector.Accusations != 1 || w.collector.FalseAccusations != 1 {
		t.Fatalf("accusations=%d false=%d", w.collector.Accusations, w.collector.FalseAccusations)
	}
}

func TestIsolationEventsRecorded(t *testing.T) {
	ac := testAttack(attack.ModeOutOfBand)
	w := buildWorld(t, 4, true, map[field.NodeID]*attack.Config{3: &ac})
	// Node 2 is a radio neighbor of the attacker (3); drive its MalC over
	// the threshold.
	e := w.nodes[2].Engine()
	for i := uint64(0); i < 3; i++ {
		e.Buffer().AccuseFabrication(3, packet.Key{Type: packet.TypeRouteReply, Origin: 9, Seq: i})
	}
	if !e.IsIsolated(3) {
		t.Fatal("threshold crossing did not isolate")
	}
	if w.collector.LocalRevocations != 1 {
		t.Fatalf("LocalRevocations = %d", w.collector.LocalRevocations)
	}
	if len(w.collector.IsolatedBy(3)) != 1 {
		t.Fatalf("IsolatedBy = %v", w.collector.IsolatedBy(3))
	}
	if w.collector.FalseIsolations != 0 {
		t.Fatal("true isolation misclassified as false")
	}
}

func TestAlertsFlowBetweenNodes(t *testing.T) {
	// Line of 5 with attacker in the middle (3). Nodes 2 and 4 are both
	// neighbors of 3. When both their MalC cross, each revokes and sends
	// alerts to 3's other neighbors; with gamma=2, endorsements spread.
	ac := testAttack(attack.ModeOutOfBand)
	w := buildWorld(t, 5, true, map[field.NodeID]*attack.Config{3: &ac})
	for _, accuser := range []field.NodeID{2, 4} {
		e := w.nodes[accuser].Engine()
		for i := uint64(0); i < 3; i++ {
			e.Buffer().AccuseFabrication(3, packet.Key{Type: packet.TypeRouteReply, Origin: 9, Seq: i})
		}
	}
	if err := w.kernel.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if w.collector.AlertsSent == 0 {
		t.Fatal("no alerts sent")
	}
	// Both accusers isolated 3 locally.
	iso := w.collector.IsolatedBy(3)
	if len(iso) < 2 {
		t.Fatalf("IsolatedBy = %v", iso)
	}
}

func TestTunnelFramesIgnoredByHonestNodes(t *testing.T) {
	w := buildWorld(t, 3, true, nil)
	p := &packet.Packet{Type: packet.TypeTunnelEncap, Seq: 1, Sender: 2, Receiver: 1}
	// Must not panic or reach the router.
	w.nodes[1].Receive(p)
	if w.collector.DataDelivered != 0 {
		t.Fatal("tunnel frame delivered as data")
	}
}
