package medium

import (
	"testing"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// TestBroadcastDeliveryAllocBudget is the delivery-path allocation
// regression pin. A warm broadcast costs exactly the single Unmarshal:
//
//	2 allocs (packet struct + route slice), whatever the degree.
//
// Every receiver shares the decoded frame, and the one kernel event per
// transmission rides a pooled delivery batch, so nothing scales with the
// number of receivers. A budget increase here means the hot path
// regressed; do not raise it without profiling.
func TestBroadcastDeliveryAllocBudget(t *testing.T) {
	cases := []struct {
		name string
		topo func(testing.TB) *field.Field
		want int // receivers of node 2's broadcast
	}{
		{"2-receivers", func(tb testing.TB) *field.Field { return lineTopo(tb, 3) }, 2},
		{"5-receivers", starTopo, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(1)
			f := tc.topo(t)
			m := New(k, f, Config{})
			for _, id := range f.IDs() {
				if err := m.Attach(id, func(*packet.Packet) {}); err != nil {
					t.Fatal(err)
				}
			}
			sender := field.NodeID(2)
			if n := len(f.Neighbors(sender)); n != tc.want {
				t.Fatalf("sender has %d receivers, want %d", n, tc.want)
			}
			p := &packet.Packet{
				Type: packet.TypeRouteRequest, Sender: sender, PrevHop: sender, Origin: sender,
				Receiver: packet.Broadcast, Route: []field.NodeID{sender},
			}
			// Warm the wire buffer, the kernel's event pool and the
			// medium's delivery-batch pool.
			if err := m.Broadcast(p); err != nil {
				t.Fatal(err)
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := m.Broadcast(p); err != nil {
					t.Fatal(err)
				}
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
			})
			const budget = 2
			if allocs > budget {
				t.Fatalf("%d-receiver broadcast allocates %.1f objects, budget %d", tc.want, allocs, budget)
			}
			if d := m.Stats().Deliveries; d != uint64(tc.want)*202 {
				t.Fatalf("Deliveries = %d, want %d", d, tc.want*202)
			}
		})
	}
}

// starTopo places node 2 at the center of five other nodes, all within its
// 30m range.
func starTopo(tb testing.TB) *field.Field {
	tb.Helper()
	f := field.New(80, 80, 30)
	pts := map[field.NodeID]field.Point{
		2: {X: 40, Y: 40},
		1: {X: 20, Y: 40}, 3: {X: 60, Y: 40}, 4: {X: 40, Y: 20},
		5: {X: 40, Y: 60}, 6: {X: 55, Y: 55},
	}
	for id := field.NodeID(1); id <= 6; id++ {
		if err := f.Place(id, pts[id]); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

func BenchmarkBroadcastDelivery(b *testing.B) {
	k := sim.New(1)
	f := lineTopo(b, 5)
	m := New(k, f, Config{})
	for i := field.NodeID(1); i <= 5; i++ {
		if err := m.Attach(i, func(*packet.Packet) {}); err != nil {
			b.Fatal(err)
		}
	}
	p := &packet.Packet{
		Type: packet.TypeRouteRequest, Sender: 3, PrevHop: 3, Origin: 3,
		Receiver: packet.Broadcast, Route: []field.NodeID{3},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Broadcast(p); err != nil {
			b.Fatal(err)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
