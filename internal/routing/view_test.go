package routing

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// TestCachedDestinationsViewInvalidation: the sorted destination view is
// shared between calls while the cache is unchanged, and rebuilt — with
// fresh backing, so old snapshots survive — on every insert and eviction.
func TestCachedDestinationsViewInvalidation(t *testing.T) {
	k := sim.New(1)
	r := newRouter(k, 1, Config{}, func(*packet.Packet) error { return nil }, Events{})

	installTestRoute(r, 1, 2, 5)
	installTestRoute(r, 1, 3, 4)
	v1 := r.CachedDestinations()
	if len(v1) != 2 || v1[0] != 4 || v1[1] != 5 {
		t.Fatalf("view = %v, want [4 5]", v1)
	}
	v2 := r.CachedDestinations()
	if &v1[0] != &v2[0] {
		t.Fatal("unchanged cache rebuilt the view (no sharing)")
	}

	installTestRoute(r, 1, 2, 3)
	v3 := r.CachedDestinations()
	if len(v3) != 3 || v3[0] != 3 || v3[1] != 4 || v3[2] != 5 {
		t.Fatalf("view after insert = %v, want [3 4 5]", v3)
	}
	if len(v1) != 2 || v1[0] != 4 || v1[1] != 5 {
		t.Fatalf("old snapshot corrupted by rebuild: %v", v1)
	}

	r.EvictRoute(4)
	v4 := r.CachedDestinations()
	if len(v4) != 2 || v4[0] != 3 || v4[1] != 5 {
		t.Fatalf("view after evict = %v, want [3 5]", v4)
	}

	// Timer-driven eviction must invalidate too.
	k.RunFor(testRouteTimeout + time.Second)
	if got := r.CachedDestinations(); len(got) != 0 {
		t.Fatalf("view after TOutRoute = %v, want empty", got)
	}
}

// TestForwardViewInvalidation mirrors the invalidation contract for the
// per-hop forwarding table consulted by evictVia.
func TestForwardViewInvalidation(t *testing.T) {
	k := sim.New(1)
	r := newRouter(k, 1, Config{HopByHop: true}, func(*packet.Packet) error { return nil }, Events{})

	r.setForward(7, 2)
	r.setForward(3, 2)
	v1 := r.forwardDests()
	if len(v1) != 2 || v1[0] != 3 || v1[1] != 7 {
		t.Fatalf("view = %v, want [3 7]", v1)
	}
	// Refreshing an existing entry is not a membership change: the view
	// must stay shared.
	r.setForward(7, 4)
	v2 := r.forwardDests()
	if &v1[0] != &v2[0] {
		t.Fatal("refresh of an existing dest rebuilt the view")
	}
	if next, _ := r.NextHop(7); next != 4 {
		t.Fatalf("NextHop(7) = %d after refresh, want 4", next)
	}

	r.setForward(9, 5)
	if v3 := r.forwardDests(); len(v3) != 3 || v3[2] != 9 {
		t.Fatalf("view after insert = %v, want [3 7 9]", v3)
	}

	k.RunFor(testRouteTimeout + time.Second)
	if got := r.forwardDests(); len(got) != 0 {
		t.Fatalf("view after timeout = %v, want empty", got)
	}
	if _, ok := r.NextHop(7); ok {
		t.Fatal("forwarding entry survived its timeout")
	}
}

// TestRouteRecordRecycled: evicted route records come back from the
// freelist, their eviction deadline stays keyed to the right incarnation,
// and the route contents are correct after reuse.
func TestRouteRecordRecycled(t *testing.T) {
	k := sim.New(1)
	r := newRouter(k, 1, Config{}, func(*packet.Packet) error { return nil }, Events{})

	installTestRoute(r, 1, 2, 5)
	first := r.cache[5]
	r.EvictRoute(5)
	installTestRoute(r, 1, 3, 6)
	second := r.cache[6]
	if first != second {
		t.Fatal("freelist miss: evicted route record was not reused")
	}
	if got := r.Route(6); len(got) != 3 || got[1] != 3 || got[2] != 6 {
		t.Fatalf("reused record carries route %v, want [1 3 6]", got)
	}
	// The first incarnation's evictor was cancelled; only the second may
	// fire, and only for dest 6.
	k.RunFor(testRouteTimeout + time.Second)
	if r.HasRoute(6) {
		t.Fatal("route 6 survived TOutRoute")
	}
}

// TestSeenReqSweptBeforeGrowth: with no timer, an expired REQ-suppression
// entry stays in the table yet no longer suppresses a re-flood, and the
// dead entries go when the table would next grow.
func TestSeenReqSweptBeforeGrowth(t *testing.T) {
	k := sim.New(1)
	sent := 0
	r := newRouter(k, 2, Config{},
		func(*packet.Packet) error { sent++; return nil }, Events{})
	req := func(origin field.NodeID) *packet.Packet {
		return &packet.Packet{
			Type:      packet.TypeRouteRequest,
			Seq:       1,
			Origin:    origin,
			FinalDest: 8,
			Sender:    origin,
			Receiver:  packet.Broadcast,
			Route:     []field.NodeID{origin},
		}
	}
	flood := func(origin field.NodeID) {
		r.HandleRouteRequest(req(origin))
		k.RunFor(100 * time.Millisecond) // the forward rides a jitter timer
	}

	for o := field.NodeID(10); o < 20; o++ {
		flood(o)
	}
	flood(10)
	if sent != 10 {
		t.Fatalf("10 REQs and a duplicate within seenTTL forwarded %d times, want 10", sent)
	}
	k.RunFor(seenTTL - 100*time.Millisecond) // every entry expires
	flood(20)                                // 11 entries: one short of the growth point
	flood(10)                                // dead: refloods, and replaces its own entry
	if sent != 12 || r.seenReq.Len() != 11 {
		t.Fatalf("after seenTTL: sent %d, %d entries; want 12 and all 11 until the table would grow", sent, r.seenReq.Len())
	}
	flood(21) // 12 entries: the growth point
	flood(22) // sweeps out the nine dead entries instead of growing
	if got := r.seenReq.Len(); got != 4 || r.seenReq.Cap() != 16 || sent != 14 {
		t.Fatalf("after the sweep: %d entries in %d slots, sent %d; want 4 in 16, sent 14", got, r.seenReq.Cap(), sent)
	}
}

// TestSuppressionTablesBounded: a router fed REQs from many origins for
// six seenTTLs, a quarter of them addressed to it, keeps each suppression
// table within eight slots per live entry, with no timer reclaiming them.
func TestSuppressionTablesBounded(t *testing.T) {
	k := sim.New(1)
	const ttl = seenTTL
	const gap = ttl / 200 // 200 REQs live at a time
	r := newRouter(k, 2, Config{}, func(*packet.Packet) error { return nil }, Events{})
	peakSeen, peakReplied := 0, 0
	for i := 0; k.Now() < 6*ttl; i++ {
		dest := field.NodeID(8)
		if i%4 == 0 {
			dest = 2
		}
		origin := field.NodeID(100 + i%300)
		r.HandleRouteRequest(&packet.Packet{
			Type:      packet.TypeRouteRequest,
			Seq:       uint64(i),
			Origin:    origin,
			FinalDest: dest,
			Sender:    origin,
			Receiver:  packet.Broadcast,
			Route:     []field.NodeID{origin},
		})
		k.RunFor(gap)
		if k.Now() < ttl {
			continue // still filling
		}
		const live = int(ttl / gap)
		if c := r.seenReq.Cap(); c > 8*live {
			t.Fatalf("at %v: seenReq has %d slots for %d live entries", k.Now(), c, live)
		}
		if c := r.repliedReq.Cap(); c > 8*live/4 {
			t.Fatalf("at %v: repliedReq has %d slots for %d live entries", k.Now(), c, live/4)
		}
		peakSeen, peakReplied = max(peakSeen, r.seenReq.Len()), max(peakReplied, r.repliedReq.Len())
	}
	if peakSeen < 200 || peakReplied < 50 {
		t.Fatalf("peak %d seen and %d replied entries: the tables never filled", peakSeen, peakReplied)
	}
}
