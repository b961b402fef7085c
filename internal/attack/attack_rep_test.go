package attack

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/medium"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// repWorld builds two colluders (10 near node 1, 11 near node 4) with a
// tunnel and attaches their attacker logic.
func repWorld(t *testing.T, cfg Config) (*sim.Kernel, *medium.Medium, *Attacker, *Attacker, map[field.NodeID][]*packet.Packet) {
	t.Helper()
	k, med, _ := wormholeWorld(t)
	heard := map[field.NodeID][]*packet.Packet{}
	for _, id := range []field.NodeID{1, 2, 3, 4} {
		id := id
		if err := med.Attach(id, func(p *packet.Packet) { heard[id] = append(heard[id], p) }); err != nil {
			t.Fatal(err)
		}
	}
	var m1, m2 *Attacker
	if err := med.Attach(10, func(p *packet.Packet) {
		if p.Type == packet.TypeTunnelEncap {
			m1.HandleTunnel(p)
			return
		}
		m1.HandleControl(p)
	}); err != nil {
		t.Fatal(err)
	}
	if err := med.Attach(11, func(p *packet.Packet) {
		if p.Type == packet.TypeTunnelEncap {
			m2.HandleTunnel(p)
			return
		}
		m2.HandleControl(p)
	}); err != nil {
		t.Fatal(err)
	}
	m1 = New(k, med, 10, []field.NodeID{10, 11}, cfg)
	m2 = New(k, med, 11, []field.NodeID{10, 11}, cfg)
	if err := med.AddTunnel(10, 11, 0); err != nil {
		t.Fatal(err)
	}
	return k, med, m1, m2, heard
}

func TestRepTunneledBackThroughWormhole(t *testing.T) {
	cfg := testConfig(ModeOutOfBand)
	k, _, m1, m2, heard := repWorld(t, cfg)

	// A REP whose route crosses the wormhole: [1, 10, 11, 4]. It arrives
	// at M2 (11) from node 4; the next hop toward the source is M1 (10),
	// reachable only through the tunnel.
	rep := &packet.Packet{
		Type: packet.TypeRouteReply, Seq: 5, Origin: 1, FinalDest: 1,
		Sender: 4, PrevHop: 4, Receiver: 11,
		Route: []field.NodeID{1, 10, 11, 4},
	}
	if !m2.HandleControl(rep) {
		t.Fatal("M2 did not consume the REP bound for its colluder")
	}
	if err := k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if m2.Stats().RepsTunneled != 1 {
		t.Fatalf("M2 stats = %+v", m2.Stats())
	}
	if m1.Stats().TunnelExits != 1 {
		t.Fatalf("M1 stats = %+v", m1.Stats())
	}
	// M1 re-injected the REP toward node 1.
	found := false
	for _, p := range heard[1] {
		if p.Type == packet.TypeRouteReply && p.Sender == 10 && p.Receiver == 1 {
			found = true
			if p.PrevHop == 10 {
				t.Fatal("forged prev hop equals self")
			}
		}
	}
	if !found {
		t.Fatalf("source never heard the tunneled REP; node 1 heard %v", heard[1])
	}
}

func TestRepNotTunneledWhenNextHopHonest(t *testing.T) {
	cfg := testConfig(ModeOutOfBand)
	_, _, _, m2, _ := repWorld(t, cfg)
	// Next hop toward the source is an honest node: the attacker lets the
	// router handle it.
	rep := &packet.Packet{
		Type: packet.TypeRouteReply, Seq: 5, Origin: 1, FinalDest: 1,
		Sender: 4, PrevHop: 4, Receiver: 11,
		Route: []field.NodeID{1, 2, 11, 4},
	}
	if m2.HandleControl(rep) {
		t.Fatal("attacker consumed a REP it should forward normally")
	}
	if m2.Stats().RepsTunneled != 0 {
		t.Fatalf("stats = %+v", m2.Stats())
	}
}

func TestClaimColluderPrevHop(t *testing.T) {
	cfg := testConfig(ModeOutOfBand)
	cfg.PrevHop = StrategyClaimColluder
	k, _, m1, m2, heard := repWorld(t, cfg)

	req := &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 1, FinalDest: 4,
		Sender: 1, PrevHop: 1, Receiver: packet.Broadcast, Route: []field.NodeID{1},
	}
	m1.HandleControl(req)
	if err := k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if m2.Stats().TunnelExits != 1 {
		t.Fatalf("M2 stats = %+v", m2.Stats())
	}
	// Node 4 heard M2's rebroadcast claiming the colluder as prev hop.
	found := false
	for _, p := range heard[4] {
		if p.Type == packet.TypeRouteRequest && p.Sender == 11 {
			found = true
			if p.PrevHop != 10 {
				t.Fatalf("claim-colluder strategy announced prev hop %d, want 10", p.PrevHop)
			}
		}
	}
	if !found {
		t.Fatal("tunneled REQ never re-injected")
	}
}

func TestInactiveAttackerIsHonest(t *testing.T) {
	cfg := testConfig(ModeOutOfBand)
	k, _, m1, _, _ := repWorld(t, cfg)
	m1.SetActive(false)
	if m1.Active() {
		t.Fatal("Active after SetActive(false)")
	}
	req := &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 1, FinalDest: 4,
		Sender: 1, PrevHop: 1, Receiver: packet.Broadcast, Route: []field.NodeID{1},
	}
	if m1.HandleControl(req) {
		t.Fatal("dormant attacker consumed a packet")
	}
	if m1.Stats().ReqsTunneled != 0 {
		t.Fatalf("dormant attacker tunneled: %+v", m1.Stats())
	}
	data := &packet.Packet{Type: packet.TypeData, Seq: 2, Origin: 1, FinalDest: 4, Sender: 1, PrevHop: 1, Receiver: 10}
	if m1.ShouldDropData(data) {
		t.Fatal("dormant attacker dropped data")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOnPhantomRouteClassification(t *testing.T) {
	k, med, _ := wormholeWorld(t)
	if err := med.Attach(10, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(ModeHighPower)
	a := New(k, med, 10, nil, cfg)

	// Route 1-10-4: the hop 10->4 spans ~180m (range 30m), so the route
	// was captured through a phantom link and its data is black-holed.
	phantom := &packet.Packet{
		Type: packet.TypeData, Seq: 1, Origin: 1, FinalDest: 4, Sender: 1,
		PrevHop: 1, Receiver: 10, Route: []field.NodeID{1, 10, 4},
	}
	if !a.ShouldDropData(phantom) {
		t.Fatal("data on phantom route not dropped")
	}
	// Data on a route that does not contain the attacker is untouched.
	notOnRoute := &packet.Packet{
		Type: packet.TypeData, Seq: 3, Origin: 1, FinalDest: 4, Sender: 1,
		PrevHop: 1, Receiver: 10, Route: []field.NodeID{1, 2, 4},
	}
	if a.ShouldDropData(notOnRoute) {
		t.Fatal("dropped data on a route not containing the attacker")
	}
}

func TestSmartRepCoverTransmits(t *testing.T) {
	cfg := testConfig(ModeOutOfBand)
	cfg.SmartRepCover = true
	k, _, _, m2, heard := repWorld(t, cfg)

	rep := &packet.Packet{
		Type: packet.TypeRouteReply, Seq: 5, Origin: 1, FinalDest: 1,
		Sender: 4, PrevHop: 4, Receiver: 11,
		Route: []field.NodeID{1, 10, 11, 4},
	}
	if !m2.HandleControl(rep) {
		t.Fatal("M2 did not consume the REP")
	}
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if m2.Stats().CoverTransmissions != 1 {
		t.Fatalf("stats = %+v", m2.Stats())
	}
	// The cover copy was heard on the air near M2 (node 4 is in range).
	found := false
	for _, p := range heard[4] {
		if p.Type == packet.TypeRouteReply && p.Sender == 11 {
			found = true
		}
	}
	if !found {
		t.Fatal("cover transmission never hit the air")
	}
}

func TestSelectiveDropProbability(t *testing.T) {
	k, med, _ := wormholeWorld(t)
	if err := med.Attach(10, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := med.Attach(11, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := med.AddTunnel(10, 11, 0); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(ModeOutOfBand)
	cfg.DropProbability = 0.3
	a := New(k, med, 10, []field.NodeID{11}, cfg)
	// Form the wormhole so data dropping is armed.
	a.HandleControl(&packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 1, FinalDest: 4,
		Sender: 1, PrevHop: 1, Receiver: packet.Broadcast, Route: []field.NodeID{1},
	})
	dropped := 0
	const n = 5000
	for i := 0; i < n; i++ {
		d := &packet.Packet{Type: packet.TypeData, Seq: uint64(i + 10), Origin: 1, FinalDest: 4, Sender: 1, PrevHop: 1, Receiver: 10}
		if a.ShouldDropData(d) {
			dropped++
		}
	}
	rate := float64(dropped) / n
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("selective drop rate = %.3f, want ~0.3", rate)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
