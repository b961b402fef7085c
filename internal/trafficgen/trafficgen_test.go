package trafficgen

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/sim"
)

func TestSourceGeneratesAtRate(t *testing.T) {
	k := sim.New(1)
	sent := 0
	src := New(k, 1, []field.NodeID{1, 2, 3}, Config{Lambda: 1, Mu: 0, PayloadBytes: 16},
		func(dest field.NodeID, payload []byte) error {
			if dest == 1 {
				t.Fatal("source sent to itself")
			}
			if len(payload) != 16 {
				t.Fatalf("payload %d bytes", len(payload))
			}
			sent++
			return nil
		})
	src.Start()
	if err := k.RunUntil(1000 * time.Second); err != nil {
		t.Fatal(err)
	}
	src.Stop()
	// Rate 1/s over 1000s: expect ~1000, allow wide stochastic band.
	if sent < 850 || sent > 1150 {
		t.Fatalf("sent %d packets in 1000s at rate 1/s", sent)
	}
	if src.Sent() != uint64(sent) {
		t.Fatalf("Sent() = %d, callback count %d", src.Sent(), sent)
	}
}

func TestSourceStops(t *testing.T) {
	k := sim.New(2)
	sent := 0
	src := New(k, 1, []field.NodeID{2}, Config{Lambda: 10},
		func(field.NodeID, []byte) error { sent++; return nil })
	src.Start()
	k.RunUntil(time.Second)
	src.Stop()
	at := sent
	k.RunUntil(10 * time.Second)
	if sent != at {
		t.Fatalf("source kept sending after Stop: %d -> %d", at, sent)
	}
}

func TestDestinationReselection(t *testing.T) {
	k := sim.New(3)
	dests := make(map[field.NodeID]bool)
	peers := []field.NodeID{2, 3, 4, 5, 6, 7, 8, 9}
	src := New(k, 1, peers, Config{Lambda: 1, Mu: 0.5},
		func(dest field.NodeID, _ []byte) error {
			dests[dest] = true
			return nil
		})
	src.Start()
	if err := k.RunUntil(200 * time.Second); err != nil {
		t.Fatal(err)
	}
	// With mu=0.5 over 200s we re-choose ~100 times among 8 peers:
	// nearly all should appear.
	if len(dests) < 4 {
		t.Fatalf("only %d destinations used; reselection broken", len(dests))
	}
}

func TestNoPeersStaysSilent(t *testing.T) {
	k := sim.New(4)
	src := New(k, 1, []field.NodeID{1}, Config{Lambda: 10},
		func(field.NodeID, []byte) error {
			t.Fatal("source with no peers sent a packet")
			return nil
		})
	src.Start()
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLambdaStaysSilent(t *testing.T) {
	k := sim.New(5)
	src := New(k, 1, []field.NodeID{2}, Config{Lambda: 0},
		func(field.NodeID, []byte) error {
			t.Fatal("zero-rate source sent a packet")
			return nil
		})
	src.Start()
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestStartAllStaggersAndTags(t *testing.T) {
	k := sim.New(6)
	ids := []field.NodeID{1, 2, 3, 4}
	counts := make(map[field.NodeID]int)
	srcs := StartAll(k, ids, Config{Lambda: 1}, func(from, dest field.NodeID, _ []byte) error {
		if from == dest {
			t.Fatal("self-addressed packet")
		}
		counts[from]++
		return nil
	})
	if len(srcs) != 4 {
		t.Fatalf("StartAll returned %d sources", len(srcs))
	}
	if err := k.RunUntil(300 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if counts[id] < 200 {
			t.Fatalf("node %d sent only %d packets", id, counts[id])
		}
		if got := srcs[i].Sent(); got != uint64(counts[id]) {
			t.Fatalf("source %d counts %d packets, node %d sent %d: sources not in ids order", i, got, id, counts[id])
		}
	}
}

func TestDeterministicTraffic(t *testing.T) {
	run := func() uint64 {
		k := sim.New(42)
		total := uint64(0)
		StartAll(k, []field.NodeID{1, 2, 3}, Config{Lambda: 1.0 / 10, Mu: 1.0 / 200, PayloadBytes: 32}, func(_, _ field.NodeID, _ []byte) error {
			total++
			return nil
		})
		k.RunUntil(500 * time.Second)
		return total
	}
	if run() != run() {
		t.Fatal("traffic nondeterministic under equal seeds")
	}
}

func TestSourceResumeAfterStop(t *testing.T) {
	k := sim.New(2)
	sent := 0
	src := New(k, 1, []field.NodeID{2}, Config{Lambda: 10},
		func(field.NodeID, []byte) error { sent++; return nil })
	src.Start()
	k.RunUntil(time.Second)
	src.Stop()
	at := sent
	k.RunUntil(2 * time.Second)
	if sent != at {
		t.Fatalf("sent while stopped: %d -> %d", at, sent)
	}
	src.Resume()
	src.Resume() // idempotent: must not double the timer chain
	k.RunUntil(3 * time.Second)
	got := sent - at
	if got < 5 || got > 20 {
		t.Fatalf("resumed rate off: %d packets in 1s at lambda=10", got)
	}
	// Stop again: timers from the resumed epoch die too.
	src.Stop()
	at = sent
	k.RunUntil(10 * time.Second)
	if sent != at {
		t.Fatalf("sent after second Stop: %d -> %d", at, sent)
	}
}

func TestStopResumeBeforeOldTimersFire(t *testing.T) {
	// Stop immediately followed by Resume must not leave two concurrent
	// timer chains (the pre-Stop chain is epoch-fenced).
	k := sim.New(2)
	sent := 0
	src := New(k, 1, []field.NodeID{2}, Config{Lambda: 10},
		func(field.NodeID, []byte) error { sent++; return nil })
	src.Start()
	k.RunUntil(time.Second)
	src.Stop()
	src.Resume() // same instant: old pending timer is still in the queue
	k.RunUntil(11 * time.Second)
	// One chain at lambda=10 over 10s ~ 100 packets (plus the 1s warmup);
	// a doubled chain would be ~200.
	if sent > 160 {
		t.Fatalf("sent = %d over 11s at lambda=10: doubled timer chain", sent)
	}
	if sent < 60 {
		t.Fatalf("sent = %d over 11s at lambda=10: source wedged", sent)
	}
}
