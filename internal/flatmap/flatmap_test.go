package flatmap

import (
	"math/rand"
	"testing"
)

// randKey draws a key with a nonzero Lo from a small space so collisions,
// replacements and deletions of present keys actually happen.
func randKey(rng *rand.Rand) Key {
	return Key{
		Hi: uint64(rng.Intn(64)),
		Lo: uint64(rng.Intn(256))<<8 | 1,
	}
}

// TestTableMatchesMap drives random Put/Delete/Get against a reference map.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table[int]
		ref := make(map[Key]int)
		for op := 0; op < 4000; op++ {
			k := randKey(rng)
			switch rng.Intn(3) {
			case 0:
				v := rng.Int()
				tab.Put(k, v)
				ref[k] = v
			case 1:
				got := tab.Delete(k)
				_, want := ref[k]
				if got != want {
					t.Fatalf("seed %d op %d: Delete(%v) = %v, want %v", seed, op, k, got, want)
				}
				delete(ref, k)
			case 2:
				got, ok := tab.Get(k)
				want, wok := ref[k]
				if ok != wok || got != want {
					t.Fatalf("seed %d op %d: Get(%v) = %v,%v want %v,%v", seed, op, k, got, ok, want, wok)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, tab.Len(), len(ref))
			}
		}
		// Every reference entry must be retrievable at the end.
		for k, want := range ref {
			if got, ok := tab.Get(k); !ok || got != want {
				t.Fatalf("seed %d: final Get(%v) = %v,%v want %v,true", seed, k, got, ok, want)
			}
		}
	}
}

// TestPackIdxKeyDistinct spot-checks that distinct (origin, seq, type)
// packet identities map to distinct keys and never produce the empty
// sentinel.
func TestPackIdxKeyDistinct(t *testing.T) {
	seen := make(map[Key]bool)
	for origin := uint32(0); origin < 4; origin++ {
		for seq := uint64(0); seq < 4; seq++ {
			for _, typ := range []uint8{1, 5, 9} {
				k := PackKey(origin, seq, typ)
				if k.zero() {
					t.Fatalf("packed key is the empty sentinel: %+v", k)
				}
				if seen[k] {
					t.Fatalf("collision at origin=%d seq=%d typ=%d", origin, seq, typ)
				}
				seen[k] = true
			}
		}
	}
}
