package node

import (
	"reflect"
	"testing"
	"time"

	"liteworp/internal/attack"
	"liteworp/internal/field"
	"liteworp/internal/medium"
	"liteworp/internal/packet"
)

// TestReceiveLeavesSharedFrameUntouched checks the stack side of the
// medium's delivery contract: every receiver of a transmission gets the
// same decoded *packet.Packet, so no receive path may mutate it. Frames are
// recorded from real runs — discovery, routing, data, alerts, and each
// attacker mode's traffic (tunneled, relayed and high-power frames) — then
// every frame is replayed into every node's Receive, honest and malicious
// alike, and must come out deeply equal to an untouched decode.
func TestReceiveLeavesSharedFrameUntouched(t *testing.T) {
	modes := []struct {
		name      string
		mode      attack.Mode
		malicious []field.NodeID
	}{
		{"out-of-band", attack.ModeOutOfBand, []field.NodeID{2, 6}},
		{"relay", attack.ModeRelay, []field.NodeID{4}},
		{"high-power", attack.ModeHighPower, []field.NodeID{4}},
	}
	for _, tc := range modes {
		t.Run(tc.name, func(t *testing.T) {
			var wires [][]byte
			seen := map[*packet.Packet]bool{}
			record := func(ev medium.TraceEvent) {
				if seen[ev.Packet] {
					return // one record per transmission, not per receiver
				}
				seen[ev.Packet] = true
				wire, err := ev.Packet.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				wires = append(wires, wire)
			}
			malicious := map[field.NodeID]*attack.Config{}
			for _, id := range tc.malicious {
				ac := attack.DefaultConfig(tc.mode)
				malicious[id] = &ac
			}
			w := buildTracedWorld(t, 7, true, malicious, record)
			if tc.mode == attack.ModeOutOfBand {
				if err := w.med.AddTunnel(2, 6, 0); err != nil {
					t.Fatal(err)
				}
			}
			for _, pair := range [][2]field.NodeID{{1, 7}, {7, 1}, {3, 5}} {
				if err := w.nodes[pair[0]].SendData(pair[1], []byte("payload")); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.kernel.RunFor(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			// Then drive the attackers' radio neighbors over the isolation
			// threshold so alerts go on the air too.
			for _, m := range tc.malicious {
				for _, nb := range w.topo.Neighbors(m) {
					if e := w.nodes[nb].Engine(); e != nil {
						for i := uint64(0); i < 3; i++ {
							e.Buffer().AccuseFabrication(m, packet.Key{Type: packet.TypeRouteReply, Origin: 9, Seq: i})
						}
					}
				}
			}
			if err := w.kernel.RunFor(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			w.med.SetTrace(nil) // replays below must not record more frames
			var st attack.Stats
			for _, id := range tc.malicious {
				s := w.nodes[id].Attacker().Stats()
				st.ReqsTunneled += s.ReqsTunneled
				st.Replays += s.Replays
				st.HighPowerTxs += s.HighPowerTxs
			}
			if st.ReqsTunneled+st.Replays+st.HighPowerTxs == 0 {
				t.Fatalf("the %s attacker put no frame on the air or tunnel", tc.name)
			}
			t.Logf("%d transmissions recorded, attacker stats %+v", len(wires), st)

			types := map[packet.Type]bool{}
			for _, wire := range wires {
				for _, id := range w.topo.IDs() {
					q, err := packet.Unmarshal(wire)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := packet.Unmarshal(wire)
					types[q.Type] = true
					w.nodes[id].Receive(q)
					if !reflect.DeepEqual(q, want) {
						t.Fatalf("node %d mutated a received %v frame:\n got  %+v\n want %+v", id, want.Type, q, want)
					}
				}
			}
			for _, typ := range []packet.Type{packet.TypeHello, packet.TypeNeighborList, packet.TypeRouteRequest, packet.TypeRouteReply, packet.TypeData, packet.TypeAlert} {
				if !types[typ] {
					t.Errorf("no %v frame recorded; the replay does not cover that receive path", typ)
				}
			}
			if tc.mode == attack.ModeOutOfBand && !types[packet.TypeTunnelEncap] {
				t.Error("no tunneled frame recorded")
			}
		})
	}
}
