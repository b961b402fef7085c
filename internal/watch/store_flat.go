package watch

import (
	"time"

	"liteworp/internal/flatmap"
	"liteworp/internal/packet"
)

// flatStore is the buffer's storage layout. Watch records are key-major:
// one record per packet identity, holding the any-sender expiry and a slot
// per sender heard transmitting it or expected to forward it, so a flooded
// REQ that arrives from d neighbors and is expected from e more costs one
// packet record and d+e sender slots, and every overheard frame resolves
// heard, heard-any and its expectations with one key probe. MalC records
// sit in a slice indexed directly by nbrIdx.
//
//   - keys maps the packed packet identity to its record's position in
//     recs (see internal/flatmap).
//   - recs is dense: a swept record's slot is filled by the last record,
//     so the sweep visits live records, never table capacity.
//   - Sender slots live in fixed-size, pointer-free chunks of one slab;
//     a record's chunks form a chain, and freed chunks go on a free list.
//   - recs and the slab are paged: growing adds a page and copies
//     nothing, and a sweep hands whole pages back once they are spare.
//
// A one-entry memo remembers the last packet identity resolved, and its
// record (or its absence): the detector checks, records and then expects
// against the same packet for every guarded neighbor of one overheard
// frame, so the table is probed once per frame.
//
// Most of those expectations are no-ops: after a flood's first copy, a
// guard's neighbors are already expected or heard. A mask on the record's
// head chunk and a lower bound on its oldest heard expiry answer them
// without walking the chain (see settled); the walk stays the one general
// path.
type flatStore struct {
	keys   flatmap.Table[int32]
	recs   paged[heardRecord]
	nrecs  int32
	chunks paged[heardChunk]
	top    int32 // chunks below top are in use or on the free list
	free   int32 // head of the free chunk list, noChunk when empty
	used   int32 // chunks on some record's chain

	memoKey flatmap.Key // zero when the memo is empty
	memoRec int32       // recs position for memoKey, or -1: no record

	// malc is dense by nbrIdx; malcUsed marks live records so a swept
	// (reset-in-place) slot is indistinguishable from a never-used one.
	malcs    []malcRecord
	malcUsed []bool
}

// chunkSlots is the number of sender slots per slab chunk; a chunk is 56
// bytes. A flooded packet on flood-n400 is heard from about nine senders.
// Of the sizes measured (3 to 10 slots), four retained the fewest bytes on
// flood-n400 at three seeds and on paper-n100 and churn-n100: larger
// chunks leave more slots empty in a packet's last chunk.
const chunkSlots = 4

// noChunk ends a chunk chain and marks an empty free list.
const noChunk = -1

// heardChunk holds up to chunkSlots sender slots of one packet. A slot's
// exp is the sender's heard expiry or, while an expectation on the sender
// is outstanding, the complement ^ref of its deadline's ref: negative, so
// dead to every reader. A slot holds at most one of the two (see
// storeBackend), and 0 once an expectation is cleared.
//
// settled is used on a record's head chunk only, in the four bytes of
// padding every chunk carries: bit i is set exactly while the slot of
// sender i, for i below settledBits, holds a heard expiry or an
// expectation, that is while its exp is not 0 (see flatStore.settled).
type heardChunk struct {
	sidx    [chunkSlots]int32
	exp     [chunkSlots]time.Duration
	next    int32  // next chunk of the chain, noChunk at its end
	settled uint32 // head chunk: senders below settledBits with exp != 0
}

// settledBits is the width of a head chunk's settled mask. Guards index
// their neighbors densely from 0, and no forwarder index reached 18 on
// the benchmark workloads; a wider index takes the chain walk.
const settledBits = 32

// heardRecord is one watched packet identity. anyExp is the expiry of its
// newest recording, which is the newest of its senders' expiries: the
// buffer records with now+CacheTTL, so expiries never decrease. Every
// sender slot is therefore dead once anyExp is, which is what lets the
// sweep free the record whole once it also holds no expectation.
//
// A record made by an expectation on a packet no one was heard sending
// has anyExp 0. spread bounds its oldest heard expiry from below (see
// oldest); spreadOff means no bound is known.
type heardRecord struct {
	key    flatmap.Key
	anyExp time.Duration
	head   int32  // first chunk of the sender chain
	n      uint16 // sender slots used along the chain
	spread uint16 // ceilUnits(anyExp) - floorUnits(first heard expiry)
}

// spreadShift sets the unit of heardRecord.spread: 2^16 ns, about 66 µs,
// so 16 bits span about 4.3 s of copies of one packet, most of the
// default 5 s CacheTTL. A record whose copies spread wider saturates at
// spreadOff and answers every settled query with a chain walk.
const (
	spreadShift = 16
	spreadOff   = 1<<16 - 1
)

func floorUnits(d time.Duration) int64 { return int64(d) >> spreadShift }

func ceilUnits(d time.Duration) int64 { return (int64(d) + 1<<spreadShift - 1) >> spreadShift }

// widen folds a new recording's expiry exp into r's spread. Expiries never
// decrease, so the first heard expiry is the oldest, and later ones only
// widen the spread; the rounding is against that first expiry, so it does
// not accumulate.
func (r *heardRecord) widen(exp time.Duration) {
	switch {
	case r.anyExp == 0:
		r.spread = uint16(ceilUnits(exp) - floorUnits(exp))
	case r.spread != spreadOff:
		r.spread = uint16(min(int64(r.spread)+ceilUnits(exp)-ceilUnits(r.anyExp), spreadOff))
	}
}

// oldest returns a lower bound on every heard expiry on r, or 0 when none
// is known: while now is below it, every heard slot on r is live.
func (r *heardRecord) oldest() time.Duration {
	if r.spread == spreadOff {
		return 0
	}
	return time.Duration(ceilUnits(r.anyExp)-int64(r.spread)) << spreadShift
}

// pageShift sets the page size: 8 elements, 256 bytes of records or 448
// of chunks. Of the sizes measured (8 to 64), 8 retained the fewest bytes
// on paper-n100 and churn-n100 and tied on flood-n400.
const (
	pageShift = 3
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// paged is an int32-indexed array of T in fixed-size pages.
type paged[T any] struct {
	pages []*[pageSize]T
}

func (p *paged[T]) at(i int32) *T { return &p.pages[i>>pageShift][i&pageMask] }

// reserve adds a page if index i lies just past the last one.
func (p *paged[T]) reserve(i int32) {
	if int(i>>pageShift) == len(p.pages) {
		p.pages = append(p.pages, new([pageSize]T))
	}
}

// keep is the page count trim leaves for n elements: the pages they fill
// plus a quarter and one more spare, so a store whose load swings by less
// than that between sweeps does not drop and reallocate pages each time.
func keep(n int32) int {
	p := int(n+pageMask) >> pageShift
	return p + p/4 + 1
}

// trim drops the pages past the first k.
func (p *paged[T]) trim(k int) {
	for i := k; i < len(p.pages); i++ {
		p.pages[i] = nil
	}
	p.pages = p.pages[:min(k, len(p.pages))]
}

func newFlatStore() *flatStore { return &flatStore{free: noChunk} }

func anyKey(key packet.Key) flatmap.Key {
	return flatmap.PackKey(uint32(key.Origin), key.Seq, uint8(key.Type))
}

// find returns the recs position of k's record, or -1, through the memo.
func (s *flatStore) find(k flatmap.Key) int32 {
	if k == s.memoKey {
		return s.memoRec
	}
	ri, ok := s.keys.Get(k)
	if !ok {
		ri = -1
	}
	s.memoKey, s.memoRec = k, ri
	return ri
}

// record returns key's record, creating an empty one when there is none.
func (s *flatStore) record(key packet.Key) *heardRecord {
	k := anyKey(key)
	ri := s.find(k)
	if ri < 0 {
		ri = s.nrecs
		s.recs.reserve(ri)
		*s.recs.at(ri) = heardRecord{key: k, head: s.newChunk()}
		s.nrecs++
		s.keys.Put(k, ri)
		s.memoRec = ri
	}
	return s.recs.at(ri)
}

// lookup returns sidx's slot on r or, when r has none, nil and r's last
// chunk.
func (s *flatStore) lookup(r *heardRecord, sidx int32) (*time.Duration, int32) {
	c := r.head
	for base := int32(0); ; base += chunkSlots {
		ch := s.chunks.at(c)
		for i := range min(int32(r.n)-base, chunkSlots) {
			if ch.sidx[i] == sidx {
				return &ch.exp[i], c
			}
		}
		if ch.next == noChunk {
			return nil, c
		}
		c = ch.next
	}
}

// slot returns sidx's slot on r, appending one with exp 0 when r has none:
// at slot n, opening a chunk when the last is full. A record holds one
// slot per node interned by the guard's index, which radio neighborhoods
// keep far below n's 16 bits.
func (s *flatStore) slot(r *heardRecord, sidx int32) *time.Duration {
	e, c := s.lookup(r, sidx)
	if e != nil {
		return e
	}
	if r.n == 1<<16-1 {
		panic("watch: more than 65535 senders on one packet")
	}
	i := r.n % chunkSlots
	if i == 0 && r.n > 0 {
		nc := s.newChunk()
		s.chunks.at(c).next = nc
		c = nc
	}
	ch := s.chunks.at(c)
	ch.sidx[i], ch.exp[i] = sidx, 0
	r.n++
	return &ch.exp[i]
}

// mark sets sidx's bit in r's settled mask when on, clears it otherwise.
func (s *flatStore) mark(r *heardRecord, sidx int32, on bool) {
	if uint32(sidx) >= settledBits {
		return
	}
	m := &s.chunks.at(r.head).settled
	if on {
		*m |= 1 << sidx
	} else {
		*m &^= 1 << sidx
	}
}

func (s *flatStore) recordHeard(sidx int32, key packet.Key, exp time.Duration) (uint64, bool) {
	r := s.record(key)
	r.widen(exp)
	r.anyExp = exp
	e := s.slot(r, sidx)
	old := *e
	*e = exp
	s.mark(r, sidx, true)
	return uint64(^old), old < 0
}

func (s *flatStore) heard(sidx int32, key packet.Key, now time.Duration) bool {
	ri := s.find(anyKey(key))
	if ri < 0 {
		return false
	}
	e, _ := s.lookup(s.recs.at(ri), sidx)
	return e != nil && live(*e, now)
}

func (s *flatStore) heardAny(key packet.Key, now time.Duration) bool {
	ri := s.find(anyKey(key))
	return ri >= 0 && live(s.recs.at(ri).anyExp, now)
}

func (s *flatStore) expect(fidx int32, key packet.Key, ref uint64, now time.Duration) bool {
	r := s.record(key)
	e := s.slot(r, fidx)
	if *e < 0 || live(*e, now) {
		return false
	}
	*e = ^time.Duration(ref)
	s.mark(r, fidx, true)
	return true
}

// settled answers from key's record alone that fidx is pending or heard
// live. A set bit means the slot is pending or heard; while now is below
// the record's oldest heard expiry, a heard slot is live. Any other case,
// including a fidx past the mask and a record whose spread saturated,
// answers false and leaves the question to expect's chain walk.
func (s *flatStore) settled(fidx int32, key packet.Key, now time.Duration) bool {
	if uint32(fidx) >= settledBits {
		return false
	}
	ri := s.find(anyKey(key))
	if ri < 0 {
		return false
	}
	r := s.recs.at(ri)
	return now < r.oldest() && s.chunks.at(r.head).settled&(1<<fidx) != 0
}

func (s *flatStore) clearExpect(fidx int32, key packet.Key) {
	r := s.recs.at(s.find(anyKey(key)))
	*s.slot(r, fidx) = 0
	s.mark(r, fidx, false)
}

func (s *flatStore) rekey(fidx int32, key packet.Key, ref uint64) {
	e, _ := s.lookup(s.recs.at(s.find(anyKey(key))), fidx)
	*e = ^time.Duration(ref)
}

// expecting reports whether r holds an outstanding expectation.
func (s *flatStore) expecting(r *heardRecord) bool {
	for c, base := r.head, int32(0); c != noChunk; base += chunkSlots {
		ch := s.chunks.at(c)
		for i := range min(int32(r.n)-base, chunkSlots) {
			if ch.exp[i] < 0 {
				return true
			}
		}
		c = ch.next
	}
	return false
}

// newChunk takes a chunk off the free list, or the next one past top.
func (s *flatStore) newChunk() int32 {
	s.used++
	c := s.free
	if c == noChunk {
		c = s.top
		s.chunks.reserve(c)
		s.top++
	} else {
		s.free = s.chunks.at(c).next
	}
	ch := s.chunks.at(c)
	ch.next, ch.settled = noChunk, 0
	return c
}

// freeChain puts the chain starting at head on the free list.
func (s *flatStore) freeChain(head int32) {
	for c := head; ; {
		s.used--
		ch := s.chunks.at(c)
		if ch.next == noChunk {
			ch.next = s.free
			break
		}
		c = ch.next
	}
	s.free = head
}

func (s *flatStore) malc(aidx int32) *malcRecord {
	if int(aidx) >= len(s.malcs) || !s.malcUsed[aidx] {
		return nil
	}
	return &s.malcs[aidx]
}

func (s *flatStore) ensureMalc(aidx int32) *malcRecord {
	for int(aidx) >= len(s.malcs) {
		s.malcs = append(s.malcs, malcRecord{})
		s.malcUsed = append(s.malcUsed, false)
	}
	s.malcUsed[aidx] = true
	return &s.malcs[aidx]
}

// sweepCaches frees every packet record whose any-sender expiry has
// passed and that holds no outstanding expectation, with all of its sender
// slots, and returns the slots and records freed. A kept record keeps its
// expired sender slots until it goes: readers check each slot's expiry,
// and a sender heard again reuses its slot. Then the key table, the
// records and the slab give back the memory a burst left spare.
func (s *flatStore) sweepCaches(now time.Duration) int {
	n := 0
	for i := int32(0); i < s.nrecs; {
		r := s.recs.at(i)
		if live(r.anyExp, now) || s.expecting(r) {
			i++
			continue
		}
		n += int(r.n) + 1
		s.keys.Delete(r.key)
		s.freeChain(r.head)
		s.nrecs--
		if i != s.nrecs {
			*r = *s.recs.at(s.nrecs)
			s.keys.Put(r.key, i)
		}
	}
	if n == 0 {
		return 0
	}
	s.memoKey = flatmap.Key{}
	s.keys.Shrink()
	s.recs.trim(keep(s.nrecs))
	if k := keep(s.used); len(s.chunks.pages) > k {
		s.compactSlab(int32(k) << pageShift)
	}
	return n
}

// compactSlab moves every chunk at or past limit into a free slot below
// it, then drops the pages past limit. The free slots below limit are
// enough: every slot below top is on a chain or on the free list, and
// used <= limit.
func (s *flatStore) compactSlab(limit int32) {
	// Keep only the free slots below limit.
	low := int32(noChunk)
	for c := s.free; c != noChunk; {
		next := s.chunks.at(c).next
		if c < limit {
			s.chunks.at(c).next = low
			low = c
		}
		c = next
	}
	for i := int32(0); i < s.nrecs; i++ {
		link := &s.recs.at(i).head
		for c := *link; c != noChunk; c = *link {
			if c >= limit {
				nc := low
				low = s.chunks.at(nc).next
				*s.chunks.at(nc) = *s.chunks.at(c)
				*link, c = nc, nc
			}
			link = &s.chunks.at(c).next
		}
	}
	s.free = low
	s.top = min(s.top, limit)
	s.chunks.trim(int(limit >> pageShift))
}

// sweepMalc resets records whose newest observation fell strictly out of
// the window without firing. Reset-in-place keeps the slices' capacity for
// the slot's next incarnation; slot order makes the pass deterministic.
func (s *flatStore) sweepMalc(now, window time.Duration) int {
	n := 0
	for i := range s.malcs {
		rec := &s.malcs[i]
		if !s.malcUsed[i] || rec.fired || rec.latest+window >= now {
			continue
		}
		rec.times = rec.times[:0]
		rec.incs = rec.incs[:0]
		rec.latest = 0
		s.malcUsed[i] = false
		n++
	}
	return n
}

// cacheSizes reports the sender slots and packet records held.
func (s *flatStore) cacheSizes() (heard, heardAny int) {
	for i := int32(0); i < s.nrecs; i++ {
		heard += int(s.recs.at(i).n)
	}
	return heard, int(s.nrecs)
}
