package routing

import (
	"math/rand"
	"testing"
	"time"

	"liteworp/internal/flatmap"
	"liteworp/internal/packet"
)

func newSuppression() *suppression {
	c := &suppression{}
	c.init()
	return c
}

func reqKey(origin uint32, seq uint64) flatmap.Key {
	return flatmap.PackKey(origin, seq, uint8(packet.TypeRouteRequest))
}

// TestSuppressionLiveBoundary pins the liveness convention: a mark is live
// strictly before now+seenTTL and dead at it. Re-marking a live key
// supersedes its mark: the key lives seenTTL from the new mark, and the
// old one, dropped at its own expiry, takes nothing from the index.
func TestSuppressionLiveBoundary(t *testing.T) {
	c := newSuppression()
	k := reqKey(7, 42)
	c.add(k, 0)
	if !c.live(k, seenTTL-1) || c.live(k, seenTTL) {
		t.Fatal("want live just before now+seenTTL and dead at it")
	}
	c.add(k, 10*time.Second) // live: supersedes
	other := reqKey(8, 1)
	c.add(other, seenTTL) // drops the first mark of k
	if c.marks.Len() != 2 || c.marks.Keys() != 2 {
		t.Fatalf("%d marks for %d keys, want 2 for 2", c.marks.Len(), c.marks.Keys())
	}
	if !c.live(k, seenTTL) || !c.live(k, 10*time.Second+seenTTL-1) || c.live(k, 10*time.Second+seenTTL) {
		t.Fatal("the superseding mark does not live seenTTL from when it was made")
	}
	c.add(other, 2*seenTTL) // dead: re-marked, and k's mark goes first
	if c.marks.Len() != 1 || c.marks.Keys() != 1 || !c.live(other, 2*seenTTL) || c.live(k, 2*seenTTL) {
		t.Fatalf("after re-marking a dead key: %d marks for %d keys", c.marks.Len(), c.marks.Keys())
	}
}

// TestSuppressionSteadyRateAllocsNothing: at a steady flood rate the
// cache cycles its pages through its one spare and keeps its index, so a
// warm add allocates nothing.
func TestSuppressionSteadyRateAllocsNothing(t *testing.T) {
	c := newSuppression()
	const gap = seenTTL / 300 // 300 live marks
	now, seq := time.Duration(0), uint64(0)
	add := func() {
		c.add(reqKey(uint32(seq%500), seq), now)
		now += gap
		seq++
	}
	for now < 2*seenTTL {
		add()
	}
	if allocs := testing.AllocsPerRun(1000, add); allocs != 0 {
		t.Fatalf("warm add allocates %.2f objects, want 0", allocs)
	}
}

// FuzzSuppressionCache holds the cache to a map from key to expiry. The
// script's bytes pick, two at a time, an operation and a key among 256
// origins and four seqs each: a mark at the current instant (so repeated
// marks at one instant, of live keys and of dead ones), a query, a step of
// up to 1.5 s on a 100 ms grid (so instants land on expiries exactly), or,
// rarely, a gap longer than seenTTL. After every mark the cache must index
// exactly the live keys, and every key the map knows must answer as the
// map does.
func FuzzSuppressionCache(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 5, 10, 0, 1, 3, 1, 7, 0, 3, 1, 0, 1})
	rng := rand.New(rand.NewSource(1))
	for range 4 {
		b := make([]byte, 1000)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		c := newSuppression()
		oracle := map[flatmap.Key]time.Duration{}
		now := time.Duration(0)
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			k := reqKey(uint32(arg), uint64(op>>6))
			switch op % 8 {
			case 0, 1, 2:
				c.add(k, now)
				oracle[k] = now + seenTTL
				live := 0
				for k, exp := range oracle {
					if now < exp {
						live++
					}
					if c.live(k, now) != (now < exp) {
						t.Fatalf("op %d at %v: live(%v) = %v, the map expires it at %v", i/2, now, k, !(now < exp), exp)
					}
					if now >= exp {
						delete(oracle, k) // dead, as the cache must also say from now on
					}
				}
				if c.marks.Keys() != live || c.marks.Len() < live {
					t.Fatalf("op %d at %v: %d marks for %d keys, %d keys live", i/2, now, c.marks.Len(), c.marks.Keys(), live)
				}
			case 3, 4:
				exp, ok := oracle[k]
				if want := ok && now < exp; c.live(k, now) != want {
					t.Fatalf("op %d at %v: live(%v) = %v, want %v", i/2, now, k, !want, want)
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
		for k, exp := range oracle {
			if want := now < exp; c.live(k, now) != want {
				t.Fatalf("at the end, %v: live(%v) = %v, want %v", now, k, !want, want)
			}
		}
	})
}
