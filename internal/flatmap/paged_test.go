package flatmap

import (
	"math/rand"
	"slices"
	"testing"
)

// val is a keyed test value.
type val struct {
	key Key
	n   int
}

func (v val) Key() Key { return v.key }

// TestIndexedMatchesMap pushes values under a few hundred keys, re-pushing
// present keys, and drops from the head in bursts, beside a map from key
// to newest position: Lookup answers as the map does, Keys counts the
// map, and the index grows and shrinks back. Positions start just short of
// 2^32, so the queue passes a position whose low 32 bits are zero.
func TestIndexedMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Indexed[val, [ShortPage]val]
	q.Init(1<<32-500, &Spares[[ShortPage]val]{Max: 1})
	model := map[Key]uint64{}
	peak := 0
	for step := 0; step < 3000; step++ {
		if step%1000 < 600 && rng.Intn(3) != 0 {
			k := PackKey(uint32(rng.Intn(300)), uint64(rng.Intn(3)), 1)
			_, slot := q.Lookup(k)
			pos, v := q.Push()
			*v = val{k, step}
			q.Point(k, slot, pos)
			model[k] = pos
		} else {
			for n := rng.Intn(8); n > 0 && !q.Empty(); n-- {
				k := q.Front().key
				if model[k] == q.Head() {
					delete(model, k)
				}
				q.Drop()
			}
		}
		peak = max(peak, q.Slots())
		if q.Keys() != len(model) {
			t.Fatalf("step %d: %d keys indexed, want %d", step, q.Keys(), len(model))
		}
		for range 20 {
			k := PackKey(uint32(rng.Intn(300)), uint64(rng.Intn(3)), 1)
			if pos, _ := q.Lookup(k); pos != model[k] {
				t.Fatalf("step %d: Lookup(%v) = %d, want %d", step, k, pos, model[k])
			}
		}
	}
	if q.Head() <= 1<<32 {
		t.Fatalf("head %d never passed 2^32", q.Head())
	}
	if slotOf(0, 1<<32) == 0 {
		t.Fatal("a key hashing to zero at a position with zero low bits packs an empty slot")
	}
	for !q.Empty() {
		q.Drop()
	}
	if q.Keys() != 0 || q.Slots() != minCap || peak < 4*minCap {
		t.Fatalf("drained: %d keys in %d slots (peak %d)", q.Keys(), q.Slots(), peak)
	}
}

// TestPagedTrimGivesSpares: the pages Trim drops go to the queue's spares
// while they have room, and another queue on the same spares takes them
// before it allocates. A queue with no spares, like a guard's packet
// records, leaves its trimmed pages to the collector.
func TestPagedTrimGivesSpares(t *testing.T) {
	spare := Spares[[ShortPage]int]{Max: 2}
	var a, b Paged[int, [ShortPage]int]
	a.Init(0, &spare)
	b.Init(0, &spare)
	for range 5 * ShortPage {
		a.Push()
	}
	pages := slices.Clone(a.pages)
	a.Trim(ShortPage + 1)
	if a.Pages() != 2 || spare.Len() != 2 || spare.pages[0] != pages[2] || spare.pages[1] != pages[3] {
		t.Fatalf("trim to two pages of five: %d left, %d spare, want 2 and the next two", a.Pages(), spare.Len())
	}
	for range 2 * ShortPage {
		b.Push()
	}
	if spare.Len() != 0 || b.pages[0] != pages[3] || b.pages[1] != pages[2] {
		t.Fatal("a queue sharing the spares allocated instead of taking the trimmed pages")
	}

	var c Paged[int, [ShortPage]int]
	for range 3 * ShortPage {
		c.Push()
	}
	c.Trim(0)
	if !c.Empty() || c.Pages() != 0 || spare.Len() != 0 {
		t.Fatalf("trim(0) without spares left %d values on %d pages", c.Len(), c.Pages())
	}
}
