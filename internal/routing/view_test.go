package routing

import (
	"testing"
	"time"
	"unsafe"

	"liteworp/internal/field"
	"liteworp/internal/flatmap"
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

// TestSeenReqSweptBeforeGrowth: with no timer, a REQ-suppression mark
// stops suppressing a re-flood at its expiry, and the next mark made drops
// every dead one first, so the cache never grows on dead marks.
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
	held := func(want int, when string) {
		t.Helper()
		if got := r.seenReq.marks.Len(); got != want || r.seenReq.marks.Keys() != want {
			t.Fatalf("%s: %d marks for %d keys, want %d", when, got, r.seenReq.marks.Keys(), want)
		}
	}

	for o := field.NodeID(10); o < 20; o++ {
		flood(o) // at 0, 100ms, ..., 900ms
	}
	flood(10)
	if sent != 10 {
		t.Fatalf("10 REQs and a duplicate within seenTTL forwarded %d times, want 10", sent)
	}
	held(10, "after the floods")
	k.RunFor(seenTTL - k.Now()) // origin 10's mark expires now
	flood(20)
	held(10, "at the first expiry") // origin 10's mark went, origin 20's came
	k.RunFor(time.Second)           // every older mark is dead, and stays until the next add
	held(10, "with nine dead marks")
	flood(11) // dead: refloods, and drops the nine first
	if sent != 12 {
		t.Fatalf("after seenTTL: sent %d, want 12", sent)
	}
	held(2, "after the next add")
}

// heldBytes returns the bytes c holds: its pages, its spare page and its
// index.
func heldBytes(c *suppression) int {
	page := int(unsafe.Sizeof([flatmap.ShortPage]mark{}))
	return (c.marks.Pages()+c.spare.Len())*page + c.marks.Slots()*int(unsafe.Sizeof(uint64(0)))
}

// TestSuppressionTablesBounded: a router fed REQs from many origins for
// six seenTTLs, a quarter of them addressed to it, holds only the live
// marks in each suppression cache, in at most 48 bytes per live mark plus
// four pages, with no timer reclaiming them. (The hash tables these caches
// replaced allowed eight 24-byte slots per live entry.)
func TestSuppressionTablesBounded(t *testing.T) {
	k := sim.New(1)
	const ttl = seenTTL
	const gap = ttl / 200 // 200 REQs live at a time
	r := newRouter(k, 2, Config{}, func(*packet.Packet) error { return nil }, Events{})
	page := int(unsafe.Sizeof([flatmap.ShortPage]mark{}))
	bound := func(live int) int { return 48*live + 4*page }
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
		if n := r.seenReq.marks.Len(); n != live {
			t.Fatalf("at %v: seenReq holds %d marks, %d live", k.Now(), n, live)
		}
		if n := r.repliedReq.marks.Len(); n > live/4+1 {
			t.Fatalf("at %v: repliedReq holds %d marks, %d live", k.Now(), n, live/4)
		}
		if b := heldBytes(&r.seenReq); b > bound(live) {
			t.Fatalf("at %v: seenReq holds %d bytes for %d live marks", k.Now(), b, live)
		}
		if b := heldBytes(&r.repliedReq); b > bound(live/4) {
			t.Fatalf("at %v: repliedReq holds %d bytes for %d live marks", k.Now(), b, live/4)
		}
		peakSeen, peakReplied = max(peakSeen, r.seenReq.marks.Len()), max(peakReplied, r.repliedReq.marks.Len())
	}
	if peakSeen < 200 || peakReplied < 50 {
		t.Fatalf("peak %d seen and %d replied marks: the caches never filled", peakSeen, peakReplied)
	}
}
