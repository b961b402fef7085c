package liteworp

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/keys"
	"liteworp/internal/medium"
	"liteworp/internal/metrics"
	"liteworp/internal/neighbor"
	"liteworp/internal/node"
	"liteworp/internal/routing"
	"liteworp/internal/sim"
	"liteworp/internal/watch"
)

// TestRouteDiscoveryAttemptedOnce builds nodes the way every scenario builds
// them (nodeConfig, node.New) and sends toward a destination no REQ can
// reach: the source originates exactly one REQ, and once the router's 3 s
// request timeout has passed the queued payloads count as failed sends. No
// second attempt follows.
func TestRouteDiscoveryAttemptedOnce(t *testing.T) {
	const requestTimeout = 3 * time.Second
	p := DefaultParams()
	k := sim.New(1)
	f := field.New(1000, 40, p.TxRange)
	for id, x := range map[field.NodeID]float64{1: 0, 2: 20, 3: 900} {
		if err := f.Place(id, field.Point{X: x, Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	med := medium.New(k, f, medium.Config{BandwidthBps: p.BandwidthBps})
	deps := node.Deps{
		Kernel: k, Medium: med, Keys: keys.NewKeyServer(1),
		Collector: metrics.NewCollector(), Log: watch.NewLog(k), Floods: routing.NewFloods(1), Topo: f,
		OnAlertRetry: func(_, _, _ field.NodeID, _ int) {},
		OnAccusation: func(field.NodeID, watch.Accusation) {},
		OnIsolated:   func(_, _ field.NodeID, _ bool) {},
	}
	nodes := map[field.NodeID]*node.Node{}
	for _, id := range f.IDs() {
		nodes[id] = node.New(id, p.nodeConfig(false), deps)
		if err := nodes[id].Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.RunFor(neighbor.DiscoveryTime); err != nil {
		t.Fatal(err)
	}
	src := nodes[1]
	if !src.Table().IsNeighbor(2) {
		t.Fatal("setup: 1 and 2 are not neighbors")
	}
	for _, payload := range []string{"a", "b"} {
		if err := src.SendData(3, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.RunFor(requestTimeout - time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := src.Router().Stats(); st.RequestsOriginated != 1 || st.SendsFailed != 0 {
		t.Fatalf("before the timeout: %d REQs originated, %d sends failed; want 1 and 0",
			st.RequestsOriginated, st.SendsFailed)
	}
	if got := nodes[2].Router().Stats().RequestsForwarded; got != 1 {
		t.Fatalf("neighbor 2 forwarded %d REQs, want 1", got)
	}
	if err := k.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := src.Router().Stats(); st.SendsFailed != 2 {
		t.Fatalf("at the timeout: %d sends failed, want both queued payloads", st.SendsFailed)
	}
	if err := k.RunFor(10 * requestTimeout); err != nil {
		t.Fatal(err)
	}
	if st := src.Router().Stats(); st.RequestsOriginated != 1 || st.SendsFailed != 2 {
		t.Fatalf("long after the timeout: %d REQs originated, %d sends failed; want 1 and 2",
			st.RequestsOriginated, st.SendsFailed)
	}
}
