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
		if got := r.floods.floods.Len(); got != want || r.floods.floods.Keys() != want {
			t.Fatalf("%s: %d floods for %d keys, want %d", when, got, r.floods.floods.Keys(), want)
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

// heldBytes returns the bytes f holds: its pages, its spare page, its
// index, and the slot arrays of the floods held and of the spare list.
func heldBytes(f *Floods) int {
	page := int(unsafe.Sizeof([flatmap.ShortPage]flood{}))
	b := (f.floods.Pages()+f.spare.Len())*page + f.floods.Slots()*int(unsafe.Sizeof(uint64(0)))
	b += cap(f.free) * int(unsafe.Sizeof([]uint32{}))
	for _, m := range f.free {
		b += 4 * cap(m)
	}
	for pos := f.floods.Head(); pos < f.floods.Next(); pos++ {
		b += 4 * cap(f.floods.At(pos).marks)
	}
	return b
}

// TestSuppressionTablesBounded: four routers that share a table, fed REQs
// from many origins for six seenTTLs, a quarter of them addressed to the
// first, hold each live flood exactly once, with no timer reclaiming the
// dead ones. At 200 live floods the table holds them on 25 or 26 pages of
// eight 56-byte entries, one of them its spare when it holds 25, behind a
// 256-slot index (the smallest power of two at no more than 7/8 load), and
// each flood's four slots in one 16-byte array, with no spare array: at
// most 16,920 bytes, 85 per live flood. The per-router caches it replaced
// held a 24-byte mark per router and flood, 96 B for four routers, plus a
// spare page and an index each, and a reply cache beside them.
func TestSuppressionTablesBounded(t *testing.T) {
	k := sim.New(1)
	const ttl = seenTTL
	const gap = ttl / 200 // 200 REQs live at a time
	floods := NewFloods(2)
	var routers []*Router
	for id := field.NodeID(2); id <= 5; id++ {
		routers = append(routers, newRouter(k, id, Config{Floods: floods}, func(*packet.Packet) error { return nil }, Events{}))
	}
	page := int(unsafe.Sizeof([flatmap.ShortPage]flood{}))
	peak := 0
	for i := 0; k.Now() < 6*ttl; i++ {
		dest := field.NodeID(8)
		if i%4 == 0 {
			dest = 2
		}
		origin := field.NodeID(100 + i%300)
		for _, r := range routers {
			r.HandleRouteRequest(&packet.Packet{
				Type:      packet.TypeRouteRequest,
				Seq:       uint64(i),
				Origin:    origin,
				FinalDest: dest,
				Sender:    origin,
				Receiver:  packet.Broadcast,
				Route:     []field.NodeID{origin},
			})
		}
		k.RunFor(gap)
		if k.Now() < ttl {
			continue // still filling
		}
		const live = int(ttl / gap)
		if n := floods.floods.Len(); n != live {
			t.Fatalf("at %v: the table holds %d floods, %d live", k.Now(), n, live)
		}
		if p := floods.floods.Pages() + floods.spare.Len(); p > live/8+1 {
			t.Fatalf("at %v: %d pages with the spare, want at most %d", k.Now(), p, live/8+1)
		}
		if n := floods.floods.Slots(); n != 256 {
			t.Fatalf("at %v: %d index slots for %d floods, want 256", k.Now(), n, live)
		}
		if len(floods.free) != 0 {
			t.Fatalf("at %v: %d spare slot arrays at a steady flood rate", k.Now(), len(floods.free))
		}
		if b, want := heldBytes(floods), (live/8+1)*page+256*8+live*16+24; b > want {
			t.Fatalf("at %v: the table holds %d bytes for %d live floods, want at most %d", k.Now(), b, live, want)
		}
		peak = max(peak, floods.floods.Len())
	}
	if peak < 200 {
		t.Fatalf("peak %d floods: the table never filled", peak)
	}
	for _, r := range routers {
		if s := r.Stats(); s.RequestsForwarded+s.RepliesOriginated == 0 {
			t.Fatalf("router %d neither forwarded nor answered", r.Self())
		}
	}
}
