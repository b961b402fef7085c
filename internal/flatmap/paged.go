package flatmap

// Paged is a FIFO queue of T in fixed-length pages. A value is addressed
// by its position: Push gives each new value the next one, and Pop takes
// the value at Head, so the values held are those at positions
// [Head, Next). Positions are never reused, which lets owners use them as
// ids.
//
// pages[0] holds position head, and the pages hold no more than the
// positions [head, next) span. A page that Pop empties or Trim drops goes
// to the queue's spares while they have room, and Push takes a page from
// there before it allocates one; the collector takes the rest, and every
// page of a queue with no spares.
//
// The page type P sets the page length, so each use compiles with its
// own constant length; the zero queue starts at position 0 with no
// spares.
type Paged[T any, P Page[T]] struct {
	pages      []*P
	head, next uint64
	spares     *Spares[P]
}

// Spares holds empty pages for the queues that share it, at most Max of
// them. A queue that cycles within its pages plus the spares allocates
// nothing.
type Spares[P any] struct {
	pages []*P
	Max   int
}

// Page lists the page types: short pages for queues of a few dozen
// values, and long pages for the reception log, whose 48-byte entries
// then turn over a page rarely.
type Page[T any] interface{ [ShortPage]T | [LongPage]T }

// Page lengths.
const (
	ShortPage = 8
	LongPage  = 256
)

// Init empties q, which must hold no pages, to start at position start
// and to take and give pages to s (nil: none).
func (q *Paged[T, P]) Init(start uint64, s *Spares[P]) {
	q.head, q.next, q.spares = start, start, s
}

// size returns the page length.
func (q *Paged[T, P]) size() uint64 {
	var p P
	return uint64(len(p))
}

// Head returns the position of the oldest value held.
func (q *Paged[T, P]) Head() uint64 { return q.head }

// Next returns the position the next Push gives.
func (q *Paged[T, P]) Next() uint64 { return q.next }

// Len returns the number of values held.
func (q *Paged[T, P]) Len() int { return int(q.next - q.head) }

// Empty reports whether q holds no value.
func (q *Paged[T, P]) Empty() bool { return q.head == q.next }

// Pages returns the number of pages q holds.
func (q *Paged[T, P]) Pages() int { return len(q.pages) }

// At returns the value at position i, in [Head, Next).
func (q *Paged[T, P]) At(i uint64) *T {
	n := q.size()
	return &(*q.pages[i/n-q.head/n])[i%n]
}

// Front returns the value at Head; q must not be empty.
func (q *Paged[T, P]) Front() *T { return q.At(q.head) }

// Push adds a zero value at the tail and returns its position and the
// value.
func (q *Paged[T, P]) Push() (uint64, *T) {
	i, n := q.next, q.size()
	if int(i/n-q.head/n) == len(q.pages) {
		q.pages = append(q.pages, q.spares.take())
	}
	q.next++
	v := q.At(i)
	var zero T
	*v = zero
	return i, v
}

// Pop removes the value at Head, and gives its page to the spares once
// it has emptied it.
func (q *Paged[T, P]) Pop() {
	q.head++
	if q.head%q.size() != 0 {
		return
	}
	p := q.pages[0]
	k := copy(q.pages, q.pages[1:])
	q.pages[k] = nil
	q.pages = q.pages[:k]
	q.spares.put(p)
}

// Trim drops the values past the first k, and gives the spares every
// page that holds none of the positions [Head, Head+k).
func (q *Paged[T, P]) Trim(k uint64) {
	n := q.size()
	q.next = min(q.next, q.head+k)
	if keep := int((q.head+k+n-1)/n - q.head/n); keep < len(q.pages) {
		for _, p := range q.pages[keep:] {
			q.spares.put(p)
		}
		clear(q.pages[keep:])
		q.pages = q.pages[:keep]
	}
}

// Len returns the number of spare pages held.
func (s *Spares[P]) Len() int { return len(s.pages) }

// take returns a spare page, or a new one when there is none.
func (s *Spares[P]) take() *P {
	if s == nil || len(s.pages) == 0 {
		return new(P)
	}
	p := s.pages[len(s.pages)-1]
	s.pages[len(s.pages)-1] = nil
	s.pages = s.pages[:len(s.pages)-1]
	return p
}

// put keeps p if there is room for it.
func (s *Spares[P]) put(p *P) {
	if s != nil && len(s.pages) < s.Max {
		s.pages = append(s.pages, p)
	}
}

// Keyed is a value an Indexed queue can find by key.
type Keyed interface{ Key() Key }

// Indexed is a Paged queue with an index from a key to the position of
// the newest value stored under it. Positions must start at 1 or later
// (see Init): Lookup's 0 means none. Owners pop with Drop, which keeps the
// index; Pop would leave a slot naming a popped position.
//
// The index is an open-addressed table of 64-bit slots, each the key's
// hash tag beside the low 32 bits of the position; the key itself is read
// from the value, and only when the tag matches, so a probe that misses
// touches nothing but the table. That keeps long probe runs cheap, so the
// table grows only at 7/8 load, and it halves when an eighth is in use.
// The tag is the low 31 bits of the key's hash with bit 31 set, so no
// occupied slot is zero and 0 marks an empty one. Positions held span
// less than 2^32, so their low bits name them exactly.
type Indexed[T Keyed, P Page[T]] struct {
	Paged[T, P]
	slots []uint64
	n     int // occupied slots: the keys indexed
}

// Keys returns the number of keys indexed.
func (q *Indexed[T, P]) Keys() int { return q.n }

// Slots returns the index's slot count (0 before the first Point).
func (q *Indexed[T, P]) Slots() int { return len(q.slots) }

// tagOf returns the index tag of hash h.
func tagOf(h uint64) uint64 { return uint64(uint32(h) | 1<<31) }

// slotOf packs an index slot: the tag of hash h, then the low 32 bits of
// position pos.
func slotOf(h, pos uint64) uint64 { return tagOf(h)<<32 | uint64(uint32(pos)) }

// posOf returns the held position whose low 32 bits slot v names.
func (q *Indexed[T, P]) posOf(v uint64) uint64 {
	return q.head + uint64(uint32(v)-uint32(q.head))
}

// Lookup returns the position of k's newest value, or 0, and the index
// slot that holds it or would; pass the slot to Point before the next
// Drop.
func (q *Indexed[T, P]) Lookup(k Key) (pos, slot uint64) {
	if len(q.slots) == 0 {
		return 0, 0
	}
	h := k.hash()
	tag, mask := tagOf(h), uint64(len(q.slots)-1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := q.slots[i]
		if v == 0 {
			return 0, i
		}
		if v>>32 == tag {
			if pos := q.posOf(v); (*q.At(pos)).Key() == k {
				return pos, i
			}
		}
	}
}

// Point makes the value at pos k's newest, through the slot Lookup
// returned for k; it indexes k when the slot was empty.
func (q *Indexed[T, P]) Point(k Key, slot, pos uint64) {
	h := k.hash()
	if len(q.slots) == 0 || q.slots[slot] == 0 {
		if q.n >= len(q.slots)-len(q.slots)/8 {
			q.rehash(max(2*len(q.slots), minCap))
			mask := uint64(len(q.slots) - 1)
			for slot = h & mask; q.slots[slot] != 0; slot = (slot + 1) & mask {
			}
		}
		q.n++
	}
	q.slots[slot] = slotOf(h, pos)
}

// Drop pops the value at Head, and removes its key's index slot if the
// slot still names it.
func (q *Indexed[T, P]) Drop() {
	q.unindex((*q.Front()).Key(), q.head)
	q.Pop()
}

// unindex removes k's slot if it names position pos, shifting the rest of
// its probe chain back (see Table's deleteAt), and halves the table once
// no more than an eighth of it is in use.
func (q *Indexed[T, P]) unindex(k Key, pos uint64) {
	if q.n == 0 {
		return
	}
	mask := uint64(len(q.slots) - 1)
	i := k.hash() & mask
	for {
		v := q.slots[i]
		if v == 0 {
			return
		}
		if uint32(v) == uint32(pos) {
			break
		}
		i = (i + 1) & mask
	}
	q.n--
	for hole := i; ; {
		q.slots[hole] = 0
		j := hole
		for {
			j = (j + 1) & mask
			v := q.slots[j]
			if v == 0 {
				if len(q.slots) > minCap && q.n <= len(q.slots)/8 {
					q.rehash(len(q.slots) / 2)
				}
				return
			}
			if inCyclicInterval(hole, v>>32&mask, j) {
				continue // reachable from its home without passing the hole
			}
			q.slots[hole] = v
			hole = j
			break
		}
	}
}

// rehash moves the index into a table of n slots.
func (q *Indexed[T, P]) rehash(n int) {
	old := q.slots
	q.slots = make([]uint64, n)
	mask := uint64(n - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		i := v >> 32 & mask
		for q.slots[i] != 0 {
			i = (i + 1) & mask
		}
		q.slots[i] = v
	}
}
