package watch

import (
	"testing"
	"testing/quick"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// Property: the windowed MalC always equals the sum of increments whose
// timestamps fall inside the window, reconstructed by an independent model.
func TestPropertyMalCWindowModel(t *testing.T) {
	type hit struct {
		DelayMs uint16
		Fab     bool
	}
	f := func(hits []hit) bool {
		k := sim.New(7)
		cfg := Config{
			Timeout:              time.Hour, // no drop timers interfere
			FabricationIncrement: 3,
			DropIncrement:        1,
			Threshold:            1 << 30, // never fires
			Window:               5 * time.Second,
		}
		b := New(k, fixture(k, cfg), noAccuse, noThreshold)
		type rec struct {
			at  time.Duration
			inc int
		}
		var model []rec
		now := time.Duration(0)
		for i, h := range hits {
			now += time.Duration(h.DelayMs%2000) * time.Millisecond
			at := now
			seq := uint64(i)
			origin := field.NodeID(1)
			if !h.Fab {
				origin = 2 // distinct packets, same accusation weight
			}
			k.At(at, func() {
				b.AccuseFabrication(9, packet.Key{Type: packet.TypeRouteReply, Origin: origin, Seq: seq})
			})
			model = append(model, rec{at: at, inc: cfg.FabricationIncrement})
		}
		// Check the windowed value at a few probe times.
		for _, probe := range []time.Duration{now / 3, now / 2, now, now + 10*time.Second} {
			probe := probe
			k.At(probe, func() {})
		}
		if err := k.Run(); err != nil {
			return false
		}
		// Final check at the end of the run.
		final := k.Now()
		want := 0
		for _, r := range model {
			if r.at >= final-cfg.Window {
				want += r.inc
			}
		}
		return b.MalC(9) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Heard/HeardAny agree with an independent model under arbitrary
// interleavings of records and time advances.
func TestPropertyHeardCacheModel(t *testing.T) {
	type step struct {
		DelayMs uint16
		Sender  uint8
		Seq     uint8
	}
	f := func(steps []step) bool {
		k := sim.New(3)
		const tau = 200 * time.Millisecond
		ttl := 10 * tau // how long a heard fact lives
		b := New(k, fixture(k, Config{Timeout: tau, Threshold: 1 << 30}), noAccuse, noThreshold)
		type key struct {
			sender field.NodeID
			seq    uint64
		}
		lastHeard := map[key]time.Duration{}
		lastAny := map[uint64]time.Duration{}
		now := time.Duration(0)
		ok := true
		for _, st := range steps {
			now += time.Duration(st.DelayMs%1500) * time.Millisecond
			sender := field.NodeID(st.Sender%4 + 1)
			seq := uint64(st.Seq % 8)
			pk := packet.Key{Type: packet.TypeRouteRequest, Origin: 1, Seq: seq}
			k.At(now, func() {
				b.RecordHeard(sender, pk)
			})
			lastHeard[key{sender, seq}] = now
			lastAny[seq] = now

			// Probe all combinations at this instant (after the record),
			// against a snapshot of the model as of this step.
			heardSnap := make(map[key]time.Duration, len(lastHeard))
			for k2, v := range lastHeard {
				heardSnap[k2] = v
			}
			anySnap := make(map[uint64]time.Duration, len(lastAny))
			for k2, v := range lastAny {
				anySnap[k2] = v
			}
			nowCopy := now
			k.At(now, func() {
				for s := field.NodeID(1); s <= 4; s++ {
					for q := uint64(0); q < 8; q++ {
						probe := packet.Key{Type: packet.TypeRouteRequest, Origin: 1, Seq: q}
						wantHeard := false
						if at, rec := heardSnap[key{s, q}]; rec && nowCopy-at < ttl {
							wantHeard = true
						}
						if heardID(b, s, probe) != wantHeard {
							ok = false
						}
						wantAny := false
						if at, rec := anySnap[q]; rec && nowCopy-at < ttl {
							wantAny = true
						}
						if b.HeardAny(probe) != wantAny {
							ok = false
						}
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
