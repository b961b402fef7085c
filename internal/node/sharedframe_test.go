package node

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"liteworp/internal/attack"
	"liteworp/internal/field"
	"liteworp/internal/medium"
	"liteworp/internal/packet"
)

// TestReceiveLeavesSharedFrameUntouched checks both sides of the medium's
// frame contract. Every receiver of a transmission gets the *packet.Packet
// its sender handed over, so no receive path may mutate it, and no sender
// may touch a frame once it is handed over.
//
// Frames are recorded from real runs — discovery, routing, data, alerts,
// and each attacker mode's traffic (tunneled, relayed and high-power
// frames), plus a run under the airtime model with carrier sense, whose
// deferrals and ARQ retransmissions put a frame on the air again later.
// Each frame is kept with its encoding at first transmission, and must
// still encode to those bytes at every later transmission, at its final
// release to the frame pool, and, if it is never released, at the end of
// the run (the sender side). A routed frame's pointer is reused once its
// last reference is gone, so a pointer seen again after its release starts
// a new record. Then every record's frame, decoded from its bytes at first
// transmission, is replayed into every node's Receive, honest and
// malicious alike, and must come out deeply equal to an untouched decode
// (the receiver side).
func TestReceiveLeavesSharedFrameUntouched(t *testing.T) {
	modes := []struct {
		name      string
		mode      attack.Mode
		malicious []field.NodeID
		airtime   bool
	}{
		{"out-of-band", attack.ModeOutOfBand, []field.NodeID{2, 6}, false},
		{"relay", attack.ModeRelay, []field.NodeID{4}, false},
		{"high-power", attack.ModeHighPower, []field.NodeID{4}, false},
		{"out-of-band-airtime-csma", attack.ModeOutOfBand, []field.NodeID{2, 6}, true},
	}
	for _, tc := range modes {
		t.Run(tc.name, func(t *testing.T) {
			// A lifetime is one frame on one pointer, from its first
			// transmission to its final release: the pointer and the
			// frame's bytes at first transmission. live maps each pointer
			// to its current lifetime.
			type lifetime struct {
				p    *packet.Packet
				wire []byte
			}
			var sent []*lifetime
			live := map[*packet.Packet]*lifetime{}
			check := func(r *lifetime, when string) {
				wire, err := r.p.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(r.wire, wire) {
					t.Fatalf("a %v frame changed %s:\n was %x\n now %x", r.p.Type, when, r.wire, wire)
				}
			}
			// keep records a frame at its first transmission and checks it
			// is unchanged at every later one (relays, CSMA deferrals, ARQ).
			keep := func(p *packet.Packet) {
				if r, ok := live[p]; ok {
					check(r, "between transmissions")
					return
				}
				wire, err := p.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				r := &lifetime{p: p, wire: wire}
				sent = append(sent, r)
				live[p] = r
			}
			reused, released := 0, 0
			record := func(ev medium.TraceEvent) { keep(ev.Packet) }
			malicious := map[field.NodeID]*attack.Config{}
			for _, id := range tc.malicious {
				ac := testAttack(tc.mode)
				malicious[id] = &ac
			}
			w := buildTracedWorld(t, 7, true, malicious, record)
			// The final release ends a lifetime: the frame must still hold
			// its first bytes, and its pointer may then carry a new frame.
			seen := map[*packet.Packet]bool{}
			w.med.Frames().Recycled = func(p *packet.Packet) {
				r, ok := live[p]
				if !ok {
					return // never reached a receiver
				}
				check(r, "before its final release")
				delete(live, p)
				released++
				if seen[p] {
					reused++
				}
				seen[p] = true
			}
			if tc.mode == attack.ModeOutOfBand {
				if err := w.med.AddTunnel(2, 6, 0); err != nil {
					t.Fatal(err)
				}
			}
			if tc.airtime {
				// The airtime model traces a reception at its arrival, so a
				// delivery-fault hook that never fires records each frame at
				// transmit time instead.
				w.med.SetDeliveryFault(func(_, _ field.NodeID, p *packet.Packet) bool {
					keep(p)
					return false
				})
				w.med.EnableAirtime()
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
			w.med.SetDeliveryFault(nil)
			if tc.airtime {
				if st := w.med.Stats(); st.CarrierDeferrals == 0 || st.ARQRetransmissions == 0 {
					t.Fatalf("airtime run had %d carrier deferrals and %d ARQ retransmissions; both paths must be exercised",
						st.CarrierDeferrals, st.ARQRetransmissions)
				}
			}
			w.med.Frames().Recycled = nil
			for _, r := range live {
				check(r, "after it was handed to the medium")
			}
			if released == 0 || reused == 0 {
				t.Fatalf("%d pooled frames released, %d of them on a reused pointer; the run must exercise both", released, reused)
			}
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
			t.Logf("%d frames recorded, %d pooled frames released (%d on a reused pointer), attacker stats %+v",
				len(sent), released, reused, st)

			types := map[packet.Type]bool{}
			for _, r := range sent {
				for _, id := range w.topo.IDs() {
					q, err := packet.Unmarshal(r.wire)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := packet.Unmarshal(r.wire)
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
