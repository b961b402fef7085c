package routing

import (
	"math/rand"
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/flatmap"
	"liteworp/internal/packet"
)

func reqKey(origin uint32, seq uint64) flatmap.Key {
	return flatmap.PackKey(origin, seq, uint8(packet.TypeRouteRequest))
}

// newFloods returns a table for nodes 1..n, all joined.
func newFloods(n int) *Floods {
	f := NewFloods(1)
	for id := 1; id <= n; id++ {
		f.join(field.NodeID(id))
	}
	return f
}

// TestSuppressionLiveBoundary pins the liveness convention: a mark is live
// strictly before now+seenTTL and dead at it. Each slot has its own mark,
// and re-marking a live key supersedes the slot's mark in the key's one
// entry. A mark 2^32 − 1 ns or more after the key's first mark opens a
// newer entry linked to the first, and a slot whose newest mark is in the
// older entry is still answered from there. A flood is dropped once every
// mark in it is dead and the floods before it are gone.
func TestSuppressionLiveBoundary(t *testing.T) {
	f := newFloods(3)
	k := reqKey(7, 42)
	f.add(k, 0, 0)
	if !f.live(k, 0, seenTTL-1) || f.live(k, 0, seenTTL) {
		t.Fatal("want live just before now+seenTTL and dead at it")
	}
	if f.live(k, 1, 0) {
		t.Fatal("slot 0's mark answers for slot 1")
	}
	f.add(k, 1, 10*time.Second) // a second slot, in the same entry
	other := reqKey(8, 1)
	f.add(other, 0, seenTTL) // slot 1's mark keeps k's entry
	if f.floods.Len() != 2 || f.floods.Keys() != 2 {
		t.Fatalf("%d floods for %d keys, want 2 for 2", f.floods.Len(), f.floods.Keys())
	}
	if f.live(k, 0, seenTTL) || !f.live(k, 1, 10*time.Second+seenTTL-1) || f.live(k, 1, 10*time.Second+seenTTL) {
		t.Fatal("each slot's mark must live seenTTL from when it was made")
	}
	f.add(other, 0, 2*seenTTL) // both dead: k's entry goes, then other's, and other opens a new one
	if f.floods.Len() != 1 || f.floods.Keys() != 1 || !f.live(other, 0, 2*seenTTL) || f.live(k, 1, 2*seenTTL) {
		t.Fatalf("after re-marking a dead key: %d floods for %d keys", f.floods.Len(), f.floods.Keys())
	}

	// Late marks: an entry takes offsets up to maxMark−1 ns. By t0 every
	// mark so far is dead, so k opens a fresh entry.
	t0 := 3 * seenTTL
	f.add(k, 0, t0)
	f.add(k, 1, t0+maxMark-1)
	if f.floods.Len() != 1 {
		t.Fatalf("a mark at offset maxMark−1 opened an entry: %d floods", f.floods.Len())
	}
	f.add(k, 2, t0+maxMark)
	if f.floods.Len() != 2 || f.floods.Keys() != 1 {
		t.Fatalf("a mark at offset maxMark: %d floods for %d keys, want 2 for 1", f.floods.Len(), f.floods.Keys())
	}
	if !f.live(k, 0, t0+seenTTL-1) || f.live(k, 0, t0+seenTTL) {
		t.Fatal("slot 0's mark, in the older entry, is not answered through the link")
	}
	f.add(k, 0, t0+maxMark+1) // supersedes slot 0's mark, in the newer entry
	if !f.live(k, 0, t0+seenTTL) {
		t.Fatal("slot 0's newer mark is not the one answered")
	}
	// Slot 1's mark, the older entry's newest, dies now: the entry goes,
	// and the link from the newer one leads nowhere.
	now := t0 + maxMark - 1 + seenTTL
	f.add(other, 0, now)
	if f.floods.Len() != 2 || f.floods.Keys() != 2 {
		t.Fatalf("%d floods for %d keys, want k's newer entry and other's", f.floods.Len(), f.floods.Keys())
	}
	if f.live(k, 1, now) || !f.live(k, 0, now) || !f.live(k, 2, now) {
		t.Fatal("after the older entry went, slot 1 must be dead and slots 0 and 2 live")
	}
}

// TestSuppressionSteadyRateAllocsNothing: at a steady flood rate, each
// flood marked by 20 nodes, the table cycles its pages through its one
// spare and each new flood takes the slot array of one that died, so a
// warm flood allocates nothing.
func TestSuppressionSteadyRateAllocsNothing(t *testing.T) {
	const nodes = 20
	f := newFloods(nodes)
	const gap = seenTTL / 300 // 300 live floods
	now, seq := time.Duration(0), uint64(0)
	flood := func() {
		k := reqKey(uint32(seq%500), seq)
		for slot := range nodes {
			f.add(k, slot, now+time.Duration(slot)*time.Millisecond)
		}
		now += gap
		seq++
	}
	for now < 2*seenTTL {
		flood()
	}
	if allocs := testing.AllocsPerRun(1000, flood); allocs != 0 {
		t.Fatalf("a warm flood allocates %.2f objects, want 0", allocs)
	}
	if n := f.floods.Len(); n != 300 {
		t.Fatalf("%d floods held, want the 300 live", n)
	}
}

// FuzzSuppressionCache holds the table to one map per node from key to
// its newest mark. The script's bytes pick, two at a time, an operation,
// a node among five and a key among 16 origins and four seqs each. Nodes
// 1-3 join at the start, and nodes 4 and 5 at their first join, so their
// slots lie past the arrays of the floods marked before. The operations:
// a mark at the current instant (so repeated marks at one instant, of live
// keys and of dead ones) by a node that has joined, a query, a join (a new
// incarnation, whose map starts empty), a step of up to 1.5 s on a
// 100 ms grid (so instants land on expiries exactly), a step of
// maxMark−1 ns or of 1 ns (so marks land on either side of a key's
// 2^32-ns limit), or, rarely, a gap longer than seenTTL. After every mark,
// every key any node's map knows must answer as the map does for every
// node, the table's first flood must hold a live mark, and the table must
// keep no more spare slot arrays than floods. A map forgets a mark once it
// is dead, as the table must also say from then on.
func FuzzSuppressionCache(f *testing.F) {
	// Node 1 marks a flood, node 4 joins and marks it past its slot
	// array, and, one maxMark−1 step on, node 2's mark opens a linked
	// entry; then queries, a gap past seenTTL and a fresh mark.
	f.Add([]byte{0, 1, 27, 0, 24, 1, 6, 1, 4, 1, 5, 0, 8, 1, 28, 1, 12, 1, 7, 0, 0, 1})
	rng := rand.New(rand.NewSource(1))
	for range 4 {
		b := make([]byte, 1000)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		const nodes = 5
		tab := newFloods(3)
		joined := [nodes]bool{true, true, true}
		var oracle [nodes]map[flatmap.Key]time.Duration
		for i := range oracle {
			oracle[i] = map[flatmap.Key]time.Duration{}
		}
		now := time.Duration(0)
		check := func(op int) {
			for _, m := range oracle {
				for k := range m {
					for slot := range nodes {
						mk, ok := oracle[slot][k]
						want := ok && now < mk+seenTTL
						if tab.live(k, slot, now) != want {
							t.Fatalf("op %d at %v: live(%v, slot %d) = %v, want %v", op, now, k, slot, !want, want)
						}
					}
				}
			}
			for _, m := range oracle {
				for k, mk := range m {
					if now >= mk+seenTTL {
						delete(m, k) // dead, as the table must also say from now on
					}
				}
			}
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			slot := int(op>>3&7) % nodes
			k := reqKey(uint32(arg%16), uint64(op>>6))
			query := func() {
				mk, ok := oracle[slot][k]
				if want := ok && now < mk+seenTTL; tab.live(k, slot, now) != want {
					t.Fatalf("op %d at %v: live(%v, slot %d) = %v, want %v", i/2, now, k, slot, !want, want)
				}
			}
			switch op & 7 {
			case 0, 1, 2:
				if !joined[slot] {
					break
				}
				tab.add(k, slot, now)
				oracle[slot][k] = now
				check(i / 2)
				if !tab.floods.Empty() {
					e := tab.floods.Front()
					if now >= e.at+time.Duration(e.last-1)+seenTTL {
						t.Fatalf("op %d at %v: the first flood held is dead", i/2, now)
					}
				}
				if len(tab.free) > tab.floods.Len() {
					t.Fatalf("op %d: %d spare slot arrays for %d floods", i/2, len(tab.free), tab.floods.Len())
				}
			case 3:
				if arg%8 != 0 {
					query()
					break
				}
				tab.join(field.NodeID(slot + 1))
				joined[slot] = true
				clear(oracle[slot])
			case 4:
				query()
			case 5:
				if arg < 32 {
					now += maxMark - 1
				} else {
					now++
				}
			case 7:
				if arg < 8 {
					now += seenTTL + time.Duration(arg)*100*time.Millisecond
					break
				}
				fallthrough
			default:
				now += time.Duration(arg%16) * 100 * time.Millisecond
			}
		}
		check(len(script) / 2)
	})
}
