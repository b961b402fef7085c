package watch

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/sim"
)

// sharedGuards builds a buffer for each id on one log over k, with tau
// 100 ms, so heard facts live 1 s.
func sharedGuards(k *sim.Kernel, l *Log, ids ...field.NodeID) map[field.NodeID]*Buffer {
	out := make(map[field.NodeID]*Buffer, len(ids))
	for _, id := range ids {
		out[id] = New(k, fixture(k, Config{Timeout: 100 * time.Millisecond, Log: l, Self: id}), noAccuse, noThreshold)
	}
	return out
}

// TestLogRetransmissionToOtherReceivers: sender 10 transmits a packet
// heard by guards 1 and 2, then transmits it again later, heard by 2 and
// 3. Each guard's fact lives 1 s from its own last reception, and
// the two transmissions are two entries of one pair.
func TestLogRetransmissionToOtherReceivers(t *testing.T) {
	k := sim.New(1)
	l := NewLog(k)
	g := sharedGuards(k, l, 1, 2, 3)
	kk := key(5, 1)
	k.At(100*time.Millisecond, func() {
		g[1].RecordHeard(10, kk)
		g[2].RecordHeard(10, kk)
	})
	k.At(400*time.Millisecond, func() {
		g[2].RecordHeard(10, kk)
		g[3].RecordHeard(10, kk)
	})
	heard := func(at time.Duration, want [3]bool) {
		k.At(at, func() {
			for i, id := range []field.NodeID{1, 2, 3} {
				if got := heardID(g[id], 10, kk); got != want[i] {
					t.Errorf("at %v guard %d heard = %v, want %v", at, id, got, want[i])
				}
				if got := g[id].HeardAny(kk); got != want[i] {
					t.Errorf("at %v guard %d heard-any = %v, want %v", at, id, got, want[i])
				}
			}
		})
	}
	heard(200*time.Millisecond, [3]bool{true, true, false})
	heard(500*time.Millisecond, [3]bool{true, true, true})
	heard(1100*time.Millisecond, [3]bool{false, true, true})
	heard(1400*time.Millisecond, [3]bool{false, false, false})
	k.RunFor(450 * time.Millisecond)
	if l.entries.Len() != 2 {
		t.Fatalf("two transmissions made %d entries, want 2", l.entries.Len())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLogRebootInTheSameInstant: guard 1 hears sender 10 in one event,
// crashes and reboots at the same instant, and the new incarnation hears
// 10 again in a later event at that instant. Only the later reception
// answers the new incarnation, even where the old one's is still live,
// and guard 2, which heard 10 in the first event, keeps its fact. A
// reboot inside the very event that recorded the reception orders the
// same way.
func TestLogRebootInTheSameInstant(t *testing.T) {
	k := sim.New(1)
	l := NewLog(k)
	g := sharedGuards(k, l, 1, 2)
	kk, kk2 := key(5, 1), key(5, 2)
	at := 100 * time.Millisecond
	k.At(at, func() {
		g[1].RecordHeard(10, kk)
		g[2].RecordHeard(10, kk)
		g[1].RecordHeard(11, kk2)
	})
	// A reboot; the new incarnation's rediscovery interns 10 and 11 again.
	reboot := func() {
		g[1] = sharedGuards(k, l, 1)[1]
		g[1].Index().Intern(10)
		g[1].Index().Intern(11)
	}
	k.At(at, func() {
		reboot()
		if heardID(g[1], 10, kk) || g[1].HeardAny(kk) || heardID(g[1], 11, kk2) {
			t.Error("the new incarnation answers from the old one's receptions")
		}
		if !heardID(g[2], 10, kk) {
			t.Error("guard 2 lost its reception at guard 1's reboot")
		}
	})
	k.At(at, func() { g[1].RecordHeard(11, kk2) })
	k.At(at+time.Millisecond, func() {
		if heardID(g[1], 10, kk) || !heardID(g[1], 11, kk2) {
			t.Error("after the reboot only the new incarnation's reception may answer")
		}
		// A reboot in the event of a reception, after it.
		g[1].RecordHeard(10, kk)
		reboot()
		if heardID(g[1], 10, kk) {
			t.Error("a reception before the reboot, in the same event, answers the new incarnation")
		}
		g[1].RecordHeard(10, kk)
		if !heardID(g[1], 10, kk) {
			t.Error("a reception after the reboot, in the same event, does not answer")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLogOwnSend: a guard's own send answers only the guard itself. Its
// neighbor 2 has not heard 1 send the packet until 1's transmission
// arrives, and the own send and the reception are one entry of the pair.
func TestLogOwnSend(t *testing.T) {
	k := sim.New(1)
	l := NewLog(k)
	g := sharedGuards(k, l, 1, 2)
	kk := key(1, 7)
	k.At(100*time.Millisecond, func() { g[1].RecordHeard(1, kk) }) // 1's own send
	k.At(105*time.Millisecond, func() {
		if !heardID(g[1], 1, kk) || !g[1].HeardAny(kk) {
			t.Error("guard 1 does not vouch for its own send")
		}
		if heardID(g[2], 1, kk) || g[2].HeardAny(kk) {
			t.Error("guard 2 heard 1's transmission before it arrived")
		}
	})
	k.At(120*time.Millisecond, func() { g[2].RecordHeard(1, kk) }) // the arrival
	k.At(1110*time.Millisecond, func() {
		if heardID(g[1], 1, kk) || !heardID(g[2], 1, kk) {
			t.Error("the own send and the reception do not expire on their own instants")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if l.entries.Len() != 1 {
		t.Fatalf("an own send and its reception took %d entries, want 1", l.entries.Len())
	}
}

// TestLogReceiverPastMaskWidth: forty guards hear one transmission, so
// the last eight are placed past the mask and go to the overflow set.
// Every one of them answers, a guard that did not hear it does not, and
// the overflow receptions go with their entry.
func TestLogReceiverPastMaskWidth(t *testing.T) {
	k := sim.New(1)
	l := NewLog(k)
	ids := make([]field.NodeID, 41)
	for i := range ids {
		ids[i] = field.NodeID(100 + i)
	}
	g := sharedGuards(k, l, ids...)
	kk := key(5, 1)
	k.At(time.Millisecond, func() {
		for _, id := range ids[:40] {
			g[id].RecordHeard(10, kk)
		}
	})
	k.At(2*time.Millisecond, func() {
		for _, id := range ids[:40] {
			if !heardID(g[id], 10, kk) {
				t.Errorf("guard %d lost its reception", id)
			}
		}
		if heardID(g[ids[40]], 10, kk) || g[ids[40]].HeardAny(kk) {
			t.Error("a guard that heard nothing answers")
		}
	})
	k.RunFor(3 * time.Millisecond)
	if l.entries.Len() != 1 || l.over.Len() != 40-maskBits {
		t.Fatalf("%d entries, %d overflow receptions; want 1 and %d", l.entries.Len(), l.over.Len(), 40-maskBits)
	}
	k.RunFor(2 * time.Second)
	g[ids[0]].RecordHeard(11, kk)
	if l.entries.Len() != 1 || l.over.Len() != 0 || l.overQ.Len() != 0 {
		t.Fatalf("after expiry: %d entries, %d overflow receptions (%d queued)", l.entries.Len(), l.over.Len(), l.overQ.Len())
	}
}

// TestLogBatchIsOneInstant: records made outside any kernel event, with
// the clock moved on between them by a RunFor that fired nothing, are two
// batches, not one: guard 1's reception at 0 must not take guard 2's
// instant, 100 ms later, and so outlive its own 1 s.
func TestLogBatchIsOneInstant(t *testing.T) {
	k := sim.New(1)
	l := NewLog(k)
	g := sharedGuards(k, l, 1, 2)
	kk := key(5, 1)
	g[1].RecordHeard(10, kk)
	k.RunFor(100 * time.Millisecond)
	g[2].RecordHeard(10, kk)
	k.RunFor(950 * time.Millisecond)
	if heardID(g[1], 10, kk) || !heardID(g[2], 10, kk) {
		t.Fatalf("at %v: guard 1 heard %v (want false), guard 2 %v (want true)", k.Now(), heardID(g[1], 10, kk), heardID(g[2], 10, kk))
	}
}
