// Package flatmap provides the flat containers behind the watch layer's
// records and reception log and the routing layer's REQ-suppression
// table.
//
// Table is an open-addressed hash table: power-of-two capacity, linear
// probing, and tombstone-free deletion by backward shift. It exists
// because profiling showed Go's generic map machinery — per-op hashing
// of composite struct keys, control-group scanning, and buckets retained
// at the high-water mark — dominating both CPU and retained heap on the
// monitoring hot path. A flat table stores keys and values in two
// parallel slices with no per-entry pointers, so lookups are one
// multiply-shift hash plus a short linear scan over contiguous memory,
// the garbage collector never scans the key storage, and Shrink gives
// the capacity back when a traffic burst subsides — something Go maps
// never do.
//
// Paged is a FIFO queue in fixed-length pages that recycles the pages it
// empties through a bounded pool of spares, and Indexed adds to it an
// index from a key to the position of its newest value, in 64-bit slots
// that hold a hash tag and a position rather than the key (paged.go).
// The reception log keeps its entries in one, and a scenario's
// REQ-suppression table its floods in another: records that expire about
// in the order they were made, so dropping the dead ones is popping the
// head.
//
// Keys are 128-bit values with one invariant the caller must uphold:
// a live key's Lo word is never zero. This frees the all-zero slot to act
// as Table's empty marker, so no separate occupancy bitmap is needed.
// PackKey guarantees the invariant by folding a nonzero packet type tag
// into Lo's low byte.
//
// Determinism: probe placement depends only on the key set and the order
// of insertions and deletions, all of which are kernel-event-ordered, so
// table layout is reproducible across runs. No randomized seeds, no
// map-range order leaks.
package flatmap

// Key is a 128-bit table key. Live keys must have Lo != 0 (the zero Key
// marks an empty slot).
type Key struct {
	Hi, Lo uint64
}

// zero reports whether the slot holding k is empty.
func (k Key) zero() bool { return k.Lo == 0 }

// hash mixes both words with a splitmix64-style finalizer. The multiplier
// constants are the usual golden-ratio/murmur mix primes.
func (k Key) hash() uint64 {
	h := k.Hi*0x9e3779b97f4a7c15 ^ k.Lo*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// minCap is the smallest table allocation: small enough that an idle
// guard's caches cost little, large enough that steady chatter does not
// immediately grow.
const minCap = 16

// Table is an open-addressed hash table from Key to V. The zero value is
// ready to use (storage is allocated on first Put). Deletion backward-
// shifts the probe chain, so no tombstones accumulate and load factor
// equals occupancy.
type Table[V any] struct {
	keys []Key
	vals []V
	n    int
	mask uint64
}

// Len returns the number of live entries.
func (t *Table[V]) Len() int { return t.n }

// Get returns the value stored under k.
func (t *Table[V]) Get(k Key) (V, bool) {
	if t.n == 0 {
		var zero V
		return zero, false
	}
	i := k.hash() & t.mask
	for {
		sk := t.keys[i]
		if sk == k {
			return t.vals[i], true
		}
		if sk.zero() {
			var zero V
			return zero, false
		}
		i = (i + 1) & t.mask
	}
}

// Put stores v under k, replacing any previous value.
func (t *Table[V]) Put(k Key, v V) {
	if len(t.keys) == 0 {
		t.rehash(minCap)
	} else if t.n >= len(t.keys)-len(t.keys)/4 { // grow at 3/4 load
		t.rehash(len(t.keys) * 2)
	}
	i := k.hash() & t.mask
	for {
		sk := t.keys[i]
		if sk == k {
			t.vals[i] = v
			return
		}
		if sk.zero() {
			t.keys[i] = k
			t.vals[i] = v
			t.n++
			return
		}
		i = (i + 1) & t.mask
	}
}

// Delete removes k, reporting whether it was present.
func (t *Table[V]) Delete(k Key) bool {
	if t.n == 0 {
		return false
	}
	i := k.hash() & t.mask
	for {
		sk := t.keys[i]
		if sk == k {
			t.deleteAt(i)
			return true
		}
		if sk.zero() {
			return false
		}
		i = (i + 1) & t.mask
	}
}

// deleteAt empties slot i and backward-shifts the rest of the probe chain
// so every surviving entry stays reachable from its home slot. Standard
// open-addressing deletion (Knuth 6.4 algorithm R): walk forward from the
// hole; an entry may fill it only if its home slot does not lie in the
// cyclic interval (hole, entry].
func (t *Table[V]) deleteAt(i uint64) {
	var zeroV V
	t.n--
	for {
		t.keys[i] = Key{}
		t.vals[i] = zeroV
		j := i
		for {
			j = (j + 1) & t.mask
			sk := t.keys[j]
			if sk.zero() {
				return
			}
			home := sk.hash() & t.mask
			if inCyclicInterval(i, home, j) {
				continue // reachable from its home without passing the hole
			}
			t.keys[i] = sk
			t.vals[i] = t.vals[j]
			i = j
			break
		}
	}
}

// inCyclicInterval reports whether h lies in the cyclic half-open interval
// (i, j].
func inCyclicInterval(i, h, j uint64) bool {
	if i <= j {
		return i < h && h <= j
	}
	return i < h || h <= j
}

// rehash moves every live entry into fresh storage of the given
// power-of-two capacity.
func (t *Table[V]) rehash(newCap int) {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]Key, newCap)
	t.vals = make([]V, newCap)
	t.mask = uint64(newCap - 1)
	t.n = 0
	for i, k := range oldKeys {
		if !k.zero() {
			t.putFresh(k, oldVals[i])
		}
	}
}

// putFresh inserts a key known to be absent into a table known to have
// room (rehash's inner loop: no load check, no replace check).
func (t *Table[V]) putFresh(k Key, v V) {
	i := k.hash() & t.mask
	for !t.keys[i].zero() {
		i = (i + 1) & t.mask
	}
	t.keys[i] = k
	t.vals[i] = v
	t.n++
}

// Shrink rehashes into smaller storage when occupancy has fallen to an
// eighth of capacity — the burst is over, give the memory back. The target
// keeps load under a half so a shrink is never immediately undone. Owners
// call it after a batch of deletions.
func (t *Table[V]) Shrink() {
	if len(t.keys) <= minCap || t.n > len(t.keys)/8 {
		return
	}
	newCap := len(t.keys)
	for newCap > minCap && t.n <= newCap/8 {
		newCap /= 2
	}
	t.rehash(newCap)
}

// ShrinkFor rehashes into the smallest table that holds n entries at no
// more than half load, when that is smaller than the current one. n is
// at least Len: an owner whose load swings between sweeps passes its
// recent peak, and so keeps the room that peak needs rather than
// shrinking and growing back every time.
func (t *Table[V]) ShrinkFor(n int) {
	newCap := minCap
	for newCap < 2*n {
		newCap *= 2
	}
	if newCap < len(t.keys) {
		t.rehash(newCap)
	}
}

// PackKey packs a packet identity (origin, seq, type tag) into a Key.
// origin fills Hi; Lo folds the nonzero type tag into the low byte,
// upholding the Lo != 0 invariant for any seq < 2^56 (seq is a per-origin
// counter — unreachable in any feasible run).
func PackKey(origin uint32, seq uint64, typ uint8) Key {
	return Key{Hi: uint64(origin), Lo: seq<<8 | uint64(typ)}
}
