package medium

import (
	"errors"
	"math"
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// lineTopo builds nodes 1..n spaced 20m apart with range 30m: each node
// hears only its immediate chain neighbors.
func lineTopo(t testing.TB, n int) *field.Field {
	t.Helper()
	f := field.New(float64(n*20+20), 40, 30)
	for i := 1; i <= n; i++ {
		if err := f.Place(field.NodeID(i), field.Point{X: float64(i * 20), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

type sink struct {
	got []*packet.Packet
}

func (s *sink) recv(p *packet.Packet) { s.got = append(s.got, p) }

func TestBroadcastReachesOnlyNodesInRange(t *testing.T) {
	k := sim.New(1)
	f := lineTopo(t, 4) // 1-2-3-4 chain, 20m spacing, range 30
	m := New(k, f, Config{BandwidthBps: 40_000})
	sinks := map[field.NodeID]*sink{}
	for i := field.NodeID(1); i <= 4; i++ {
		s := &sink{}
		sinks[i] = s
		if err := m.Attach(i, s.recv); err != nil {
			t.Fatal(err)
		}
	}
	p := &packet.Packet{Type: packet.TypeRouteRequest, Sender: 2, PrevHop: 2, Origin: 2, Receiver: packet.Broadcast}
	if err := m.Broadcast(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sinks[1].got) != 1 || len(sinks[3].got) != 1 {
		t.Fatalf("in-range nodes got %d,%d frames, want 1,1", len(sinks[1].got), len(sinks[3].got))
	}
	if len(sinks[4].got) != 0 {
		t.Fatal("out-of-range node received the frame")
	}
	if len(sinks[2].got) != 0 {
		t.Fatal("sender received its own frame")
	}
}

func TestUnicastIsOverheard(t *testing.T) {
	// Node 2 sends a frame addressed to 3; node 1 (in range of 2) must
	// still overhear it — the basis of local monitoring.
	k := sim.New(1)
	f := lineTopo(t, 3)
	m := New(k, f, Config{BandwidthBps: 40_000})
	s1, s3 := &sink{}, &sink{}
	if err := m.Attach(1, s1.recv); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(3, s3.recv); err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{Type: packet.TypeRouteReply, Sender: 2, PrevHop: 3, Receiver: 1, Origin: 3}
	if err := m.Broadcast(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s1.got) != 1 {
		t.Fatal("addressed receiver did not get the frame")
	}
	if len(s3.got) != 1 {
		t.Fatal("in-range third party did not overhear the unicast")
	}
}

func TestTxDelayMatchesBandwidth(t *testing.T) {
	k := sim.New(1)
	f := lineTopo(t, 2)
	m := New(k, f, Config{BandwidthBps: 40_000})
	var at time.Duration
	if err := m.Attach(1, func(*packet.Packet) { at = k.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{Type: packet.TypeData, Sender: 2, PrevHop: 2, Receiver: 1, Payload: make([]byte, 100)}
	size := p.Size()
	if err := m.Broadcast(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(float64(size*8) / 40_000 * float64(time.Second))
	if at < want || at > want+time.Millisecond {
		t.Fatalf("delivery at %v, want ~%v", at, want)
	}
}

func TestHighPowerExtendsRange(t *testing.T) {
	k := sim.New(1)
	f := lineTopo(t, 4) // node 1 and node 4 are 60m apart; range 30
	m := New(k, f, Config{BandwidthBps: 40_000})
	s4 := &sink{}
	for i := field.NodeID(1); i <= 3; i++ {
		if err := m.Attach(i, func(*packet.Packet) {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Attach(4, s4.recv); err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{Type: packet.TypeRouteRequest, Sender: 1, PrevHop: 1, Receiver: packet.Broadcast}
	if err := m.BroadcastHighPower(p, 3); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s4.got) != 1 {
		t.Fatal("high-power frame did not reach distant node")
	}
}

func TestAttachValidation(t *testing.T) {
	k := sim.New(1)
	f := lineTopo(t, 2)
	m := New(k, f, Config{BandwidthBps: 40_000})
	if err := m.Attach(99, func(*packet.Packet) {}); err == nil {
		t.Fatal("attached node without position")
	}
	if err := m.Attach(1, nil); err == nil {
		t.Fatal("attached nil receiver")
	}
	if err := m.Attach(1, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(1, func(*packet.Packet) {}); err == nil {
		t.Fatal("double attach accepted")
	}
}

func TestBroadcastFromUnattachedFails(t *testing.T) {
	k := sim.New(1)
	f := lineTopo(t, 2)
	m := New(k, f, Config{BandwidthBps: 40_000})
	p := &packet.Packet{Type: packet.TypeData, Sender: 1}
	if err := m.Broadcast(p); err == nil {
		t.Fatal("broadcast from unattached sender accepted")
	}
}

func TestFixedLossStatistics(t *testing.T) {
	k := sim.New(42)
	f := lineTopo(t, 2)
	m := New(k, f, Config{BandwidthBps: 40_000})
	m.SetLoss(FixedLoss{P: 0.3})
	got := 0
	if err := m.Attach(1, func(*packet.Packet) { got++ }); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		p := &packet.Packet{Type: packet.TypeData, Sender: 2, PrevHop: 2, Receiver: 1, Seq: uint64(i)}
		if err := m.Broadcast(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	rate := float64(got) / n
	if math.Abs(rate-0.7) > 0.03 {
		t.Fatalf("delivery rate = %g, want ~0.7", rate)
	}
	st := m.Stats()
	if st.Transmissions != n {
		t.Fatalf("Transmissions = %d", st.Transmissions)
	}
	if st.Deliveries+st.Losses != n {
		t.Fatalf("deliveries %d + losses %d != %d", st.Deliveries, st.Losses, n)
	}
}

func TestLinearCollisionModel(t *testing.T) {
	f := lineTopo(t, 5)
	m := NewLinearCollision(f, 0.05, 3, 0.9)
	// Interior node 3 has 2 neighbors => P = 0.05 * 2/3.
	got := m.LossProb(2, 3)
	want := 0.05 * 2 / 3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("LossProb = %g, want %g", got, want)
	}
	// The sender does not enter the formula.
	if m.LossProb(4, 3) != got {
		t.Fatal("LossProb depends on the sender")
	}
}

// TestLinearCollisionSeesLaterPlacement places a node beside an anchor
// after the model is built, as a dynamic join does: the anchor's collision
// probability must follow its new degree.
func TestLinearCollisionSeesLaterPlacement(t *testing.T) {
	f := lineTopo(t, 5)
	m := NewLinearCollision(f, 0.05, 3, 0.9)
	const anchor = 3
	deg := f.Degree(anchor)
	m.LossProb(2, anchor)
	if err := f.Place(6, field.Point{X: 60, Y: 10}); err != nil {
		t.Fatal(err)
	}
	if f.Degree(anchor) != deg+1 {
		t.Fatalf("Degree(%d) = %d after the join, want %d", anchor, f.Degree(anchor), deg+1)
	}
	want := 0.05 * float64(deg+1) / 3
	if got := m.LossProb(6, anchor); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LossProb at the anchor = %g, want %g", got, want)
	}
}

func TestLinearCollisionCap(t *testing.T) {
	f := field.New(10, 10, 30)
	for i := 1; i <= 50; i++ {
		f.Place(field.NodeID(i), field.Point{X: float64(i) * 0.1, Y: 0})
	}
	m := NewLinearCollision(f, 0.05, 3, 0.4)
	if p := m.LossProb(1, 2); p != 0.4 {
		t.Fatalf("cap not applied: %g", p)
	}
}

func TestTunnel(t *testing.T) {
	k := sim.New(1)
	f := lineTopo(t, 10) // 1 and 10 far apart
	m := New(k, f, Config{BandwidthBps: 40_000})
	s10 := &sink{}
	s5 := &sink{}
	if err := m.Attach(1, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(5, s5.recv); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(10, s10.recv); err != nil {
		t.Fatal(err)
	}
	if m.HasTunnel(1, 10) {
		t.Fatal("tunnel exists before AddTunnel")
	}
	if err := m.AddTunnel(1, 10, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !m.HasTunnel(1, 10) || !m.HasTunnel(10, 1) {
		t.Fatal("tunnel not bidirectional")
	}
	p := &packet.Packet{Type: packet.TypeTunnelEncap, Sender: 1, Receiver: 10}
	if err := m.TunnelSend(1, 10, p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s10.got) != 1 {
		t.Fatal("tunnel frame not delivered")
	}
	if k.Now() != 2*time.Millisecond {
		t.Fatalf("tunnel delay not applied: now=%v", k.Now())
	}
	if len(s5.got) != 0 {
		t.Fatal("tunnel frame was overheard — tunnels must be invisible")
	}
	if m.Stats().TunnelMessages != 1 {
		t.Fatalf("TunnelMessages = %d", m.Stats().TunnelMessages)
	}
}

// TestTunnelsToTwoPeers: a station with tunnels to two peers, each with its
// own delay, sends each frame to its own peer only, after that tunnel's
// delay. Both tunnels answer HasTunnel from either end, and the two peers
// share no tunnel.
func TestTunnelsToTwoPeers(t *testing.T) {
	k := sim.New(1)
	f := lineTopo(t, 10)
	m := New(k, f, Config{BandwidthBps: 40_000})
	sinks := map[field.NodeID]*sink{}
	for _, id := range []field.NodeID{1, 5, 10} {
		sinks[id] = &sink{}
		if err := m.Attach(id, sinks[id].recv); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddTunnel(1, 5, 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTunnel(1, 10, 7*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]field.NodeID{{1, 5}, {5, 1}, {1, 10}, {10, 1}} {
		if !m.HasTunnel(pair[0], pair[1]) {
			t.Fatalf("no tunnel %d->%d", pair[0], pair[1])
		}
	}
	if m.HasTunnel(5, 10) || m.HasTunnel(10, 5) {
		t.Fatal("the two peers of one station share a tunnel")
	}
	if err := m.TunnelSend(5, 10, &packet.Packet{Sender: 5}); err == nil {
		t.Fatal("TunnelSend between the two peers accepted")
	}

	to5 := &packet.Packet{Type: packet.TypeTunnelEncap, Sender: 1, Receiver: 5, Seq: 5}
	to10 := &packet.Packet{Type: packet.TypeTunnelEncap, Sender: 1, Receiver: 10, Seq: 10}
	if err := m.TunnelSend(1, 10, to10); err != nil {
		t.Fatal(err)
	}
	if err := m.TunnelSend(1, 5, to5); err != nil {
		t.Fatal(err)
	}
	arrived := func(at time.Duration, n5, n10 int) {
		t.Helper()
		if err := k.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		if len(sinks[5].got) != n5 || len(sinks[10].got) != n10 {
			t.Fatalf("at %v: peers 5 and 10 got %d and %d frames, want %d and %d",
				at, len(sinks[5].got), len(sinks[10].got), n5, n10)
		}
	}
	arrived(3*time.Millisecond-1, 0, 0)
	arrived(3*time.Millisecond, 1, 0)
	arrived(7*time.Millisecond-1, 1, 0)
	arrived(7*time.Millisecond, 1, 1)
	if sinks[5].got[0] != to5 || sinks[10].got[0] != to10 {
		t.Fatal("a frame reached the other tunnel's peer")
	}
	if len(sinks[1].got) != 0 {
		t.Fatal("the sending endpoint received its own tunnel frame")
	}

	// Each peer answers through its own tunnel, with its own delay.
	back := &packet.Packet{Type: packet.TypeTunnelEncap, Sender: 10, Receiver: 1}
	if err := m.TunnelSend(10, 1, back); err != nil {
		t.Fatal(err)
	}
	start := k.Now()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sinks[1].got) != 1 || k.Now()-start != 7*time.Millisecond {
		t.Fatalf("reply: %d frames after %v, want 1 after 7ms", len(sinks[1].got), k.Now()-start)
	}
	if m.Stats().TunnelMessages != 3 {
		t.Fatalf("TunnelMessages = %d, want 3", m.Stats().TunnelMessages)
	}
}

func TestTunnelValidation(t *testing.T) {
	k := sim.New(1)
	f := lineTopo(t, 3)
	m := New(k, f, Config{BandwidthBps: 40_000})
	if err := m.Attach(1, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTunnel(1, 99, 0); err == nil {
		t.Fatal("tunnel to unattached node accepted")
	}
	if err := m.AddTunnel(1, 1, 0); err == nil {
		t.Fatal("self tunnel accepted")
	}
	if err := m.TunnelSend(1, 3, &packet.Packet{Sender: 1}); err == nil {
		t.Fatal("TunnelSend without tunnel accepted")
	}
}

// TestReceiversShareOneReadOnlyFrame pins the delivery contract: every
// receiver of a transmission gets the *packet.Packet its sender handed
// over (stacks Clone before mutating or keeping it), and each receiver's
// liveness is checked at its own turn in the batch, so a receiver crashed
// by an earlier receiver of the same frame counts as DownSuppressed. Both
// channel models deliver through the same batch.
func TestReceiversShareOneReadOnlyFrame(t *testing.T) {
	for _, airtime := range []bool{false, true} {
		name := "collision-model"
		if airtime {
			name = "airtime"
		}
		t.Run(name, func(t *testing.T) {
			k := sim.New(1)
			// Node 2 at the center hears 1, 3 and 4 (range 30m).
			f := field.New(60, 40, 30)
			for i := 1; i <= 4; i++ {
				if err := f.Place(field.NodeID(i), field.Point{X: float64(i * 10), Y: 0}); err != nil {
					t.Fatal(err)
				}
			}
			m := New(k, f, Config{BandwidthBps: 40_000})
			if airtime {
				m.EnableAirtime()
			}
			got := map[field.NodeID]*packet.Packet{}
			for i := field.NodeID(1); i <= 4; i++ {
				id := i
				if err := m.Attach(id, func(p *packet.Packet) {
					got[id] = p
					if id == 1 {
						// The first receiver's handler crashes a later
						// receiver of the same frame.
						if err := m.SetDown(3, true); err != nil {
							t.Error(err)
						}
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			p := &packet.Packet{
				Type: packet.TypeRouteRequest, Sender: 2, PrevHop: 2, Origin: 2,
				Receiver: packet.Broadcast, Route: []field.NodeID{5}, Payload: []byte("x"),
			}
			if err := m.Broadcast(p); err != nil {
				t.Fatal(err)
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if got[1] != p || got[4] != p {
				t.Fatalf("receivers got %p and %p, want the sender's frame %p", got[1], got[4], p)
			}
			if _, ok := got[3]; ok {
				t.Fatal("receiver crashed earlier in the batch still got the frame")
			}
			if st := m.Stats(); st.DownSuppressed != 1 || st.Deliveries != 2 {
				t.Fatalf("DownSuppressed = %d, Deliveries = %d, want 1 and 2", st.DownSuppressed, st.Deliveries)
			}
		})
	}
}

// TestOversizeFrameRefused checks that the medium still refuses a frame the
// wire codec could not encode, although it no longer encodes frames: the
// send fails with packet.ErrOversize, nothing counts as transmitted and
// nothing is delivered, on both channel models and through a tunnel.
func TestOversizeFrameRefused(t *testing.T) {
	oversize := func() *packet.Packet {
		return &packet.Packet{
			Type: packet.TypeRouteRequest, Sender: 1, PrevHop: 1, Origin: 1,
			Receiver: packet.Broadcast, Route: make([]field.NodeID, packet.MaxRouteLen+1),
		}
	}
	sends := []struct {
		name    string
		airtime bool
		send    func(*Medium, *packet.Packet) error
	}{
		{"broadcast", false, (*Medium).Broadcast},
		{"broadcast-airtime", true, (*Medium).Broadcast},
		{"tunnel", false, func(m *Medium, p *packet.Packet) error { return m.TunnelSend(1, 3, p) }},
	}
	for _, tc := range sends {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(1)
			m := New(k, lineTopo(t, 3), Config{BandwidthBps: 40_000})
			if tc.airtime {
				m.EnableAirtime()
			}
			s := &sink{}
			for i := field.NodeID(1); i <= 3; i++ {
				if err := m.Attach(i, s.recv); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.AddTunnel(1, 3, 0); err != nil {
				t.Fatal(err)
			}
			if err := tc.send(m, oversize()); !errors.Is(err, packet.ErrOversize) {
				t.Fatalf("err = %v, want packet.ErrOversize", err)
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if st.Transmissions != 0 || st.TunnelMessages != 0 || st.BytesOnAir != 0 || len(s.got) != 0 {
				t.Fatalf("oversize frame went out: %+v, %d deliveries", st, len(s.got))
			}
		})
	}
}

func TestTraceObserverSeesEverything(t *testing.T) {
	k := sim.New(3)
	f := lineTopo(t, 3)
	m := New(k, f, Config{BandwidthBps: 40_000})
	m.SetLoss(FixedLoss{P: 1.0})
	var events []TraceEvent
	m.SetTrace(func(ev TraceEvent) { events = append(events, ev) })
	for i := field.NodeID(1); i <= 3; i++ {
		if err := m.Attach(i, func(*packet.Packet) { t.Error("lossy channel delivered a frame") }); err != nil {
			t.Fatal(err)
		}
	}
	p := &packet.Packet{Type: packet.TypeData, Sender: 2, PrevHop: 2, Receiver: 1}
	if err := m.Broadcast(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("trace saw %d events, want 2 (both receivers)", len(events))
	}
	for _, ev := range events {
		if !ev.Lost {
			t.Fatal("event not marked lost under P=1 loss")
		}
	}
}

func TestDeterministicDeliveryOrder(t *testing.T) {
	run := func() []field.NodeID {
		k := sim.New(9)
		f := lineTopo(t, 3)
		m := New(k, f, Config{BandwidthBps: 40_000})
		var order []field.NodeID
		for i := field.NodeID(1); i <= 3; i++ {
			i := i
			if err := m.Attach(i, func(*packet.Packet) { order = append(order, i) }); err != nil {
				t.Fatal(err)
			}
		}
		p := &packet.Packet{Type: packet.TypeData, Sender: 2, PrevHop: 2, Receiver: packet.Broadcast}
		if err := m.Broadcast(p); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic delivery count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic delivery order: %v vs %v", a, b)
		}
	}
}

func TestSetLossSwapsModel(t *testing.T) {
	k := sim.New(1)
	f := lineTopo(t, 2)
	m := New(k, f, Config{BandwidthBps: 40_000})
	got := 0
	if err := m.Attach(1, func(*packet.Packet) { got++ }); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	m.SetLoss(FixedLoss{P: 1})
	p := &packet.Packet{Type: packet.TypeData, Sender: 2, PrevHop: 2, Receiver: 1}
	if err := m.Broadcast(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("P=1 loss delivered a frame")
	}
	m.SetLoss(nil) // restores lossless
	if err := m.Broadcast(p.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatal("SetLoss(nil) did not restore delivery")
	}
}

func TestSetCorruptionNotifyProbabilistic(t *testing.T) {
	k := sim.New(5)
	f := lineTopo(t, 2)
	m := New(k, f, Config{BandwidthBps: 40_000})
	m.SetLoss(FixedLoss{P: 1})
	var corrupted []field.NodeID
	m.SetCorruptionNotify(func(rx field.NodeID) { corrupted = append(corrupted, rx) })
	if err := m.Attach(1, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{Type: packet.TypeData, Sender: 2, PrevHop: 2, Receiver: 1}
	if err := m.Broadcast(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(corrupted) != 1 || corrupted[0] != 1 {
		t.Fatalf("corruption notifications = %v", corrupted)
	}
}

func TestEnableAirtimeRuntimeToggle(t *testing.T) {
	k := sim.New(1)
	f := lineTopo(t, 3)
	m := New(k, f, Config{BandwidthBps: 40_000})
	got := 0
	for i := field.NodeID(1); i <= 3; i++ {
		i := i
		cb := func(*packet.Packet) {}
		if i == 2 {
			cb = func(*packet.Packet) { got++ }
		}
		if err := m.Attach(i, cb); err != nil {
			t.Fatal(err)
		}
	}
	m.EnableAirtime()
	// Simultaneous frames from the hidden terminals 1 and 3 collide at 2
	// under airtime rules (broadcasts, so no ARQ retransmission hides the
	// loss).
	if err := m.Broadcast(&packet.Packet{Type: packet.TypeData, Sender: 1, PrevHop: 1, Receiver: packet.Broadcast, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Broadcast(&packet.Packet{Type: packet.TypeData, Sender: 3, PrevHop: 3, Receiver: packet.Broadcast, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("airtime toggle inactive: %d frames decoded", got)
	}
	if m.Stats().AirtimeCollisions == 0 {
		t.Fatal("no airtime collisions counted")
	}
}

func TestBroadcastFromUsesTransmitterPosition(t *testing.T) {
	// Node 3 replays a frame claiming sender 1; reachability follows node
	// 3's position, not node 1's.
	k := sim.New(1)
	f := lineTopo(t, 4) // 1-2-3-4 chain
	m := New(k, f, Config{BandwidthBps: 40_000})
	heard4 := 0
	if err := m.Attach(3, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(4, func(p *packet.Packet) {
		if p.Sender == 1 {
			heard4++
		}
	}); err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{Type: packet.TypeData, Sender: 1, PrevHop: 1, Receiver: packet.Broadcast}
	if err := m.BroadcastFrom(3, p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if heard4 != 1 {
		t.Fatal("replay from node 3's position did not reach node 4")
	}
	// Unattached replayer rejected.
	if err := m.BroadcastFrom(99, p.Clone()); err == nil {
		t.Fatal("BroadcastFrom from unattached node accepted")
	}
}

func TestTopologyAccessorAndBytesByType(t *testing.T) {
	k := sim.New(1)
	f := lineTopo(t, 2)
	m := New(k, f, Config{BandwidthBps: 40_000})
	if m.Topology() != f {
		t.Fatal("Topology accessor broken")
	}
	if err := m.Attach(1, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Broadcast(&packet.Packet{Type: packet.TypeData, Sender: 1, PrevHop: 1, Receiver: 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Broadcast(&packet.Packet{Type: packet.TypeRouteRequest, Sender: 1, PrevHop: 1, Receiver: packet.Broadcast}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.BytesByType[packet.TypeData] == 0 || st.BytesByType[packet.TypeRouteRequest] == 0 {
		t.Fatalf("per-type byte accounting missing: %v", st.BytesByType)
	}
	var sum uint64
	for _, v := range st.BytesByType {
		sum += v
	}
	if sum != st.BytesOnAir {
		t.Fatalf("per-type bytes %d != total %d", sum, st.BytesOnAir)
	}
	// Stats returns a copy: mutating it must not affect the medium.
	st.BytesByType[packet.TypeData] = 0
	if m.Stats().BytesByType[packet.TypeData] == 0 {
		t.Fatal("Stats leaked internal map")
	}
}

func TestAirtimeARQRetransmits(t *testing.T) {
	k := sim.New(2)
	f := lineTopo(t, 2)
	m := airMedium(k, f)
	m.SetLoss(FixedLoss{P: 1}) // every attempt lost
	if err := m.Attach(1, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Broadcast(&packet.Packet{Type: packet.TypeData, Sender: 1, PrevHop: 1, Receiver: 2}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().ARQRetransmissions; got != unicastRetries {
		t.Fatalf("ARQRetransmissions = %d, want %d", got, unicastRetries)
	}
}

// TestStationsAttachedOutOfIDOrder: stations live in a slice by ID, so
// attaching the highest ID first, then one below every ID seen, must
// keep each station reachable by its own ID; unattached IDs on either
// side stay unknown, and a link flapped down twice comes back with one
// restore.
func TestStationsAttachedOutOfIDOrder(t *testing.T) {
	k := sim.New(1)
	m := New(k, lineTopo(t, 4), Config{BandwidthBps: 40_000})
	sinks := map[field.NodeID]*sink{}
	for _, id := range []field.NodeID{3, 4, 1} {
		sinks[id] = &sink{}
		if err := m.Attach(id, sinks[id].recv); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Attach(1, sinks[1].recv); err == nil {
		t.Fatal("a second attach of 1 was accepted")
	}
	for _, id := range []field.NodeID{0, 2, 5} {
		if err := m.SetDown(id, true); err == nil {
			t.Fatalf("SetDown(%d) of an unattached ID was accepted", id)
		}
	}
	for range 2 {
		if err := m.SetLinkDown(3, 4, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetLinkDown(4, 3, false); err != nil {
		t.Fatal(err)
	}
	if m.LinkDown(3, 4) || m.LinkDown(4, 3) {
		t.Fatal("one restore left the link down")
	}
	p := &packet.Packet{Type: packet.TypeRouteRequest, Sender: 3, PrevHop: 3, Origin: 3, Receiver: packet.Broadcast}
	if err := m.Broadcast(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sinks[4].got) != 1 || len(sinks[1].got) != 0 {
		t.Fatalf("node 3's broadcast reached 4 %d times and 1 %d times, want once and never", len(sinks[4].got), len(sinks[1].got))
	}
}
