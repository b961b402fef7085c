package attack

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/medium"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// testConfig returns the paper's attack behavior for the given mode: a
// forged previous hop at the tunnel exit and 3x range in high-power mode.
func testConfig(mode Mode) Config {
	return Config{
		Mode:            mode,
		PrevHop:         StrategyForgeNeighbor,
		HighPowerFactor: 3,
	}
}

func TestTaxonomyMatchesTable1(t *testing.T) {
	tax := Taxonomy()
	if len(tax) != 5 {
		t.Fatalf("taxonomy has %d modes, want 5", len(tax))
	}
	byMode := make(map[Mode]ModeInfo)
	for _, mi := range tax {
		byMode[mi.Mode] = mi
	}
	// Table 1 rows.
	if byMode[ModeEncapsulation].MinCompromised != 2 || byMode[ModeEncapsulation].SpecialRequirement != "None" {
		t.Fatalf("encapsulation row wrong: %+v", byMode[ModeEncapsulation])
	}
	if byMode[ModeOutOfBand].MinCompromised != 2 || byMode[ModeOutOfBand].SpecialRequirement != "Out-of-band link" {
		t.Fatalf("out-of-band row wrong: %+v", byMode[ModeOutOfBand])
	}
	if byMode[ModeHighPower].MinCompromised != 1 || byMode[ModeHighPower].SpecialRequirement != "High energy source" {
		t.Fatalf("high-power row wrong: %+v", byMode[ModeHighPower])
	}
	if byMode[ModeRelay].MinCompromised != 1 {
		t.Fatalf("relay row wrong: %+v", byMode[ModeRelay])
	}
	if byMode[ModeRushing].MinCompromised != 1 {
		t.Fatalf("rushing row wrong: %+v", byMode[ModeRushing])
	}
	// LITEWORP handles all but protocol deviation.
	for m, mi := range byMode {
		want := m != ModeRushing
		if mi.HandledByLiteworp != want {
			t.Fatalf("mode %v HandledByLiteworp = %v, want %v", m, mi.HandledByLiteworp, want)
		}
	}
}

func TestModeAndStrategyStrings(t *testing.T) {
	for _, m := range []Mode{ModeNone, ModeEncapsulation, ModeOutOfBand, ModeHighPower, ModeRelay, ModeRushing, Mode(99)} {
		if m.String() == "" {
			t.Fatal("empty mode name")
		}
	}
	for _, s := range []PrevHopStrategy{StrategyClaimColluder, StrategyForgeNeighbor, PrevHopStrategy(9)} {
		if s.String() == "" {
			t.Fatal("empty strategy name")
		}
	}
}

func TestWrapUnwrapRoundTrip(t *testing.T) {
	inner := &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 9, Origin: 1, FinalDest: 5,
		Sender: 2, PrevHop: 1, Receiver: packet.Broadcast,
		Route: []field.NodeID{1, 2},
	}
	w, err := wrap(inner, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if w.Type != packet.TypeTunnelEncap || w.Sender != 10 || w.Receiver != 20 {
		t.Fatalf("wrapper = %+v", w)
	}
	got, err := unwrap(w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != inner.Type || got.Seq != inner.Seq || len(got.Route) != 2 {
		t.Fatalf("unwrapped = %+v", got)
	}
}

// wormholeWorld: nodes 1..4 in a chain (20m apart, range 30) and two
// colluders M1=10 near node 1, M2=11 near node 4, with a tunnel.
func wormholeWorld(t *testing.T) (*sim.Kernel, *medium.Medium, *field.Field) {
	t.Helper()
	f := field.New(400, 100, 30)
	for i := 1; i <= 4; i++ {
		if err := f.Place(field.NodeID(i), field.Point{X: float64(i * 60), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Place(10, field.Point{X: 60, Y: 20}); err != nil { // near node 1
		t.Fatal(err)
	}
	if err := f.Place(11, field.Point{X: 240, Y: 20}); err != nil { // near node 4
		t.Fatal(err)
	}
	k := sim.New(1)
	med := medium.New(k, f, medium.Config{BandwidthBps: 250_000})
	return k, med, f
}

func TestTunnelModeCapturesAndReinjectsREQ(t *testing.T) {
	k, med, _ := wormholeWorld(t)
	var heardByNode4 []*packet.Packet
	for _, id := range []field.NodeID{1, 2, 3} {
		if err := med.Attach(id, func(*packet.Packet) {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := med.Attach(4, func(p *packet.Packet) { heardByNode4 = append(heardByNode4, p) }); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(ModeOutOfBand)
	cfg.PrevHop = StrategyForgeNeighbor
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

	// Node 1 floods a REQ; M1 (10) is in range and tunnels it to M2 (11),
	// which rebroadcasts near node 4.
	req := &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 1, FinalDest: 4,
		Sender: 1, PrevHop: 1, Receiver: packet.Broadcast,
		Route: []field.NodeID{1},
	}
	if err := med.Broadcast(req); err != nil {
		t.Fatal(err)
	}
	if err := k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	var tunneledCopy *packet.Packet
	for _, p := range heardByNode4 {
		if p.Type == packet.TypeRouteRequest && p.Sender == 11 {
			tunneledCopy = p
		}
	}
	if tunneledCopy == nil {
		t.Fatalf("node 4 never heard the wormhole copy; heard %v", heardByNode4)
	}
	// The wormhole copy claims a 3-node route 1 -> M1 -> M2 even though
	// the endpoints are far apart.
	wantRoute := []field.NodeID{1, 10, 11}
	if len(tunneledCopy.Route) != len(wantRoute) {
		t.Fatalf("route = %v, want %v", tunneledCopy.Route, wantRoute)
	}
	for i := range wantRoute {
		if tunneledCopy.Route[i] != wantRoute[i] {
			t.Fatalf("route = %v, want %v", tunneledCopy.Route, wantRoute)
		}
	}
	if m1.Stats().ReqsTunneled != 1 {
		t.Fatalf("M1 stats = %+v", m1.Stats())
	}
	if m2.Stats().TunnelExits != 1 {
		t.Fatalf("M2 stats = %+v", m2.Stats())
	}
	// Forged prev hop: M2 claims one of its real neighbors (node 4) or, if
	// claiming colluder strategy were set, M1. With ForgeNeighbor it must
	// be a true neighbor of M2.
	if tunneledCopy.PrevHop == 10 {
		t.Fatal("ForgeNeighbor strategy claimed the colluder")
	}
}

func TestTunnelDedup(t *testing.T) {
	k, med, _ := wormholeWorld(t)
	for _, id := range []field.NodeID{1, 2, 3, 4} {
		if err := med.Attach(id, func(*packet.Packet) {}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := testConfig(ModeOutOfBand)
	m1 := New(k, med, 10, []field.NodeID{11}, cfg)
	if err := med.Attach(10, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := med.Attach(11, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := med.AddTunnel(10, 11, 0); err != nil {
		t.Fatal(err)
	}
	req := &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 1, FinalDest: 4,
		Sender: 1, PrevHop: 1, Receiver: packet.Broadcast, Route: []field.NodeID{1},
	}
	m1.HandleControl(req)
	m1.HandleControl(req.Clone()) // duplicate copy of the flood
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m1.Stats().ReqsTunneled != 1 {
		t.Fatalf("duplicate REQ tunneled: %+v", m1.Stats())
	}
}

func TestHighPowerMode(t *testing.T) {
	k, med, _ := wormholeWorld(t)
	// Node 4 is 180m from M1 at (60,20): out of normal range (30m) but
	// within 3x... no — use the high-power factor needed: distance
	// ~181m, 30*3=90 insufficient. Use factor 7 to be sure.
	var node4Heard []*packet.Packet
	for _, id := range []field.NodeID{1, 2, 3} {
		if err := med.Attach(id, func(*packet.Packet) {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := med.Attach(4, func(p *packet.Packet) { node4Heard = append(node4Heard, p) }); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(ModeHighPower)
	cfg.HighPowerFactor = 7
	m1 := New(k, med, 10, nil, cfg)
	if err := med.Attach(10, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	req := &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 1, FinalDest: 4,
		Sender: 1, PrevHop: 1, Receiver: packet.Broadcast, Route: []field.NodeID{1},
	}
	if !m1.HandleControl(req) {
		t.Fatal("high-power attacker did not consume the REQ")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range node4Heard {
		if p.Sender == 10 && p.Type == packet.TypeRouteRequest {
			found = true
		}
	}
	if !found {
		t.Fatal("distant node never heard the high-power REQ")
	}
	if m1.Stats().HighPowerTxs != 1 {
		t.Fatalf("stats = %+v", m1.Stats())
	}
}

func TestRelayModeReplaysVerbatim(t *testing.T) {
	// A at (0,0), relay X at (25,0), B at (50,0): A and B are not
	// neighbors (50m apart) but both neighbor X.
	f := field.New(100, 40, 30)
	f.Place(1, field.Point{X: 0, Y: 0})
	f.Place(2, field.Point{X: 25, Y: 0})
	f.Place(3, field.Point{X: 50, Y: 0})
	k := sim.New(1)
	med := medium.New(k, f, medium.Config{BandwidthBps: 40_000})
	var bHeard []*packet.Packet
	if err := med.Attach(1, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	var relay *Attacker
	if err := med.Attach(2, func(p *packet.Packet) { relay.HandleControl(p) }); err != nil {
		t.Fatal(err)
	}
	if err := med.Attach(3, func(p *packet.Packet) { bHeard = append(bHeard, p) }); err != nil {
		t.Fatal(err)
	}
	relay = New(k, med, 2, nil, testConfig(ModeRelay))

	req := &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 1, FinalDest: 3,
		Sender: 1, PrevHop: 1, Receiver: packet.Broadcast, Route: []field.NodeID{1},
	}
	if err := med.Broadcast(req); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// B heard a frame that *claims* to be transmitted by A (sender 1)
	// even though A is out of range: the phantom link.
	found := false
	for _, p := range bHeard {
		if p.Sender == 1 && p.Type == packet.TypeRouteRequest {
			found = true
		}
	}
	if !found {
		t.Fatalf("relay did not create phantom link; B heard %v", bHeard)
	}
	if relay.Stats().Replays != 1 {
		t.Fatalf("stats = %+v", relay.Stats())
	}
}

func TestShouldDropDataGating(t *testing.T) {
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
	a := New(k, med, 10, []field.NodeID{11}, cfg)
	data := &packet.Packet{Type: packet.TypeData, Seq: 1, Origin: 1, FinalDest: 4, Sender: 1, PrevHop: 1, Receiver: 10}
	// Before any wormhole forms, the attacker behaves normally.
	if a.ShouldDropData(data) {
		t.Fatal("dropped data before wormhole formed")
	}
	// After tunneling a REQ, data gets black-holed.
	req := &packet.Packet{Type: packet.TypeRouteRequest, Seq: 1, Origin: 1, FinalDest: 4, Sender: 1, PrevHop: 1, Receiver: packet.Broadcast, Route: []field.NodeID{1}}
	a.HandleControl(req)
	if !a.ShouldDropData(data) {
		t.Fatal("did not drop data after wormhole formed")
	}
	// Data addressed to the attacker itself is consumed, not dropped.
	mine := &packet.Packet{Type: packet.TypeData, Seq: 2, Origin: 1, FinalDest: 10, Sender: 1, PrevHop: 1, Receiver: 10}
	if a.ShouldDropData(mine) {
		t.Fatal("dropped data addressed to the attacker itself")
	}
	if a.Stats().DataDropped != 1 {
		t.Fatalf("stats = %+v", a.Stats())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCollaboratorListExcludesSelf(t *testing.T) {
	k, med, _ := wormholeWorld(t)
	a := New(k, med, 10, []field.NodeID{10, 11, 12}, testConfig(ModeOutOfBand))
	got := a.Colluders()
	if len(got) != 2 {
		t.Fatalf("colluders = %v", got)
	}
	for _, c := range got {
		if c == 10 {
			t.Fatal("self in colluder list")
		}
	}
	if a.Mode() != ModeOutOfBand {
		t.Fatalf("mode = %v", a.Mode())
	}
}
