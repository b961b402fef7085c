package medium

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// triangle: nodes 1, 2, 3 all within range of each other.
func triangle(t testing.TB) *field.Field {
	t.Helper()
	f := field.New(100, 100, 30)
	for id, pt := range map[field.NodeID]field.Point{
		1: {X: 10, Y: 10},
		2: {X: 30, Y: 10},
		3: {X: 20, Y: 25},
	} {
		if err := f.Place(id, pt); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func airMedium(k *sim.Kernel, f *field.Field) *Medium {
	m := New(k, f, Config{BandwidthBps: 40_000})
	m.EnableAirtime()
	return m
}

// hiddenLine: 1 and 3 cannot hear each other but both reach 2, so
// carrier sense cannot keep their frames apart at 2.
func hiddenLine(t testing.TB) *field.Field {
	t.Helper()
	f := field.New(200, 50, 30)
	for id, x := range map[field.NodeID]float64{1: 0, 2: 25, 3: 50} {
		if err := f.Place(id, field.Point{X: x, Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func data(sender field.NodeID, seq uint64, size int) *packet.Packet {
	return &packet.Packet{
		Type: packet.TypeData, Seq: seq, Origin: sender, Sender: sender,
		PrevHop: sender, Receiver: packet.Broadcast, Payload: make([]byte, size),
	}
}

func TestAirtimeSequentialFramesBothDecode(t *testing.T) {
	k := sim.New(1)
	f := triangle(t)
	m := airMedium(k, f)
	got := 0
	if err := m.Attach(3, func(*packet.Packet) { got++ }); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(1, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	// 50-byte frame at 40 kbps occupies ~17 ms; space transmissions 100ms.
	if err := m.Broadcast(data(1, 1, 50)); err != nil {
		t.Fatal(err)
	}
	k.After(100*time.Millisecond, func() {
		if err := m.Broadcast(data(2, 2, 50)); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("node 3 decoded %d sequential frames, want 2", got)
	}
	if st := m.Stats(); st.AirtimeCollisions != 0 || st.CarrierDeferrals != 0 {
		t.Fatalf("AirtimeCollisions = %d, CarrierDeferrals = %d, want 0 and 0", st.AirtimeCollisions, st.CarrierDeferrals)
	}
}

func TestAirtimePartialOverlapCollides(t *testing.T) {
	// The hidden terminals 1 and 3 cannot sense each other, so 3's frame
	// starts while 1's is still on the air at 2.
	k := sim.New(1)
	f := hiddenLine(t)
	m := airMedium(k, f)
	got := 0
	for _, id := range f.IDs() {
		cb := func(*packet.Packet) {}
		if id == 2 {
			cb = func(*packet.Packet) { got++ }
		}
		if err := m.Attach(id, cb); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Broadcast(data(1, 1, 100)); err != nil {
		t.Fatal(err)
	}
	// Second frame starts midway through the first (~20ms of ~23ms).
	k.After(10*time.Millisecond, func() {
		if err := m.Broadcast(data(3, 2, 100)); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("partially overlapping frames decoded: %d", got)
	}
	if st := m.Stats(); st.AirtimeCollisions != 2 || st.CarrierDeferrals != 0 {
		t.Fatalf("AirtimeCollisions = %d, CarrierDeferrals = %d, want 2 and 0", st.AirtimeCollisions, st.CarrierDeferrals)
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// Classic hidden terminal: 1 and 3 cannot hear each other but both
	// reach 2. Carrier sense cannot help; their frames collide at 2.
	f := hiddenLine(t)
	k := sim.New(1)
	m := airMedium(k, f)
	got := 0
	for _, id := range f.IDs() {
		cb := func(*packet.Packet) {}
		if id == 2 {
			cb = func(*packet.Packet) { got++ }
		}
		if err := m.Attach(id, cb); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Broadcast(data(1, 1, 80)); err != nil {
		t.Fatal(err)
	}
	if err := m.Broadcast(data(3, 2, 80)); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("hidden-terminal frames decoded at the middle node: %d", got)
	}
	if m.Stats().CarrierDeferrals != 0 {
		t.Fatal("carrier sense deferred despite hidden terminals")
	}
}

func TestCarrierSenseDefers(t *testing.T) {
	k := sim.New(1)
	f := triangle(t)
	m := airMedium(k, f)
	got := map[field.NodeID]int{}
	for _, id := range f.IDs() {
		id := id
		if err := m.Attach(id, func(*packet.Packet) { got[id]++ }); err != nil {
			t.Fatal(err)
		}
	}
	// Node 1 transmits; shortly after (while the frame is in the air)
	// node 2 wants to transmit. With carrier sense it defers and both
	// frames arrive intact at node 3.
	if err := m.Broadcast(data(1, 1, 100)); err != nil {
		t.Fatal(err)
	}
	k.After(5*time.Millisecond, func() {
		if err := m.Broadcast(data(2, 2, 100)); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[3] != 2 {
		t.Fatalf("node 3 decoded %d frames with carrier sense, want 2", got[3])
	}
	if m.Stats().CarrierDeferrals == 0 {
		t.Fatal("no deferrals recorded")
	}
	if m.Stats().AirtimeCollisions != 0 {
		t.Fatalf("collisions despite carrier sense: %d", m.Stats().AirtimeCollisions)
	}
}

func TestCarrierSenseGivesUpAfterMaxAttempts(t *testing.T) {
	k := sim.New(1)
	f := triangle(t)
	m := airMedium(k, f)
	for _, id := range f.IDs() {
		if err := m.Attach(id, func(*packet.Packet) {}); err != nil {
			t.Fatal(err)
		}
	}
	// Node 1 occupies the channel with a huge frame (60 KB = 12 s);
	// node 2's maxAttempts deferrals, each at most 4 frame times of a
	// control packet (~48 ms), all find the channel busy and give up.
	if err := m.Broadcast(data(1, 1, 60_000)); err != nil {
		t.Fatal(err)
	}
	k.After(time.Millisecond, func() {
		if err := m.Broadcast(data(2, 2, 50)); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.CarrierDrops != 1 || st.CarrierDeferrals != maxAttempts {
		t.Fatalf("CarrierDrops = %d, CarrierDeferrals = %d, want 1 and %d", st.CarrierDrops, st.CarrierDeferrals, maxAttempts)
	}
}

func TestAirtimeScenarioEndToEnd(t *testing.T) {
	// A small flood over the contention medium still works: spaced-out
	// transmissions dominate, so most receptions survive.
	k := sim.New(4)
	f := triangle(t)
	m := airMedium(k, f)
	got := 0
	for _, id := range f.IDs() {
		id := id
		if err := m.Attach(id, func(*packet.Packet) { got++; _ = id }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		i := i
		sender := field.NodeID(i%3 + 1)
		k.After(time.Duration(i)*80*time.Millisecond, func() {
			_ = m.Broadcast(data(sender, uint64(i), 40))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 20 frames x 2 receivers each = 40 possible receptions.
	if got < 35 {
		t.Fatalf("only %d/40 receptions under light load", got)
	}
}
