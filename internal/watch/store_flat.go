package watch

import (
	"time"

	"liteworp/internal/flatmap"
	"liteworp/internal/packet"
)

// flatStore is the buffer's storage layout. The heard cache is key-major:
// one record per overheard packet identity, holding the any-sender expiry
// and the list of senders heard transmitting it, so a flooded REQ that
// arrives from d neighbors costs one packet record and d sender slots
// rather than d+1 hashed table slots. The pending-watch table keeps its
// own open-addressed table keyed by (forwarder nbrIdx, packet identity),
// and MalC records sit in a slice indexed directly by nbrIdx.
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
type flatStore struct {
	pending flatmap.Table[*pendingEntry]

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

// heardChunk holds up to chunkSlots (sender, expiry) records of one packet.
type heardChunk struct {
	sidx [chunkSlots]int32
	exp  [chunkSlots]time.Duration
	next int32 // next chunk of the chain, noChunk at its end
}

// heardRecord is one overheard packet identity. anyExp is the expiry of
// its newest recording, which is the newest of its senders' expiries: the
// buffer records with now+CacheTTL, so expiries never decrease. Every
// sender slot is therefore dead once anyExp is, which is what lets a
// reader stop at anyExp and the sweep free the record whole.
type heardRecord struct {
	key    flatmap.Key
	anyExp time.Duration
	head   int32 // first chunk of the sender chain
	n      int32 // sender slots used along the chain
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

// pendingKey packs (forwarder nbrIdx, packet identity). packet.Type is in
// [1,9], so a live key always has Lo != 0, the table's empty sentinel.
func pendingKey(idx int32, key packet.Key) flatmap.Key {
	return flatmap.PackIdxKey(idx, uint32(key.Origin), key.Seq, uint8(key.Type))
}

func anyKey(key packet.Key) flatmap.Key {
	return flatmap.PackKey(uint32(key.Origin), key.Seq, uint8(key.Type))
}

func (s *flatStore) pendingGet(fidx int32, key packet.Key) (*pendingEntry, bool) {
	return s.pending.Get(pendingKey(fidx, key))
}

func (s *flatStore) pendingPut(fidx int32, key packet.Key, e *pendingEntry) {
	s.pending.Put(pendingKey(fidx, key), e)
}

func (s *flatStore) pendingDelete(fidx int32, key packet.Key) {
	s.pending.Delete(pendingKey(fidx, key))
}

func (s *flatStore) pendingLen() int { return s.pending.Len() }

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

func (s *flatStore) recordHeard(sidx int32, key packet.Key, exp time.Duration) {
	k := anyKey(key)
	ri := s.find(k)
	if ri < 0 {
		c := s.newChunk()
		ch := s.chunks.at(c)
		ch.sidx[0], ch.exp[0] = sidx, exp
		ri = s.nrecs
		s.recs.reserve(ri)
		*s.recs.at(ri) = heardRecord{key: k, anyExp: exp, head: c, n: 1}
		s.nrecs++
		s.keys.Put(k, ri)
		s.memoRec = ri
		return
	}
	r := s.recs.at(ri)
	r.anyExp = exp
	c := r.head
	for base := int32(0); ; base += chunkSlots {
		ch := s.chunks.at(c)
		for i := range min(r.n-base, chunkSlots) {
			if ch.sidx[i] == sidx {
				ch.exp[i] = exp
				return
			}
		}
		if ch.next == noChunk {
			break
		}
		c = ch.next
	}
	// A new sender: append at slot n, opening a chunk when the last is full.
	i := r.n % chunkSlots
	if i == 0 {
		nc := s.newChunk()
		s.chunks.at(c).next = nc
		c = nc
	}
	ch := s.chunks.at(c)
	ch.sidx[i], ch.exp[i] = sidx, exp
	r.n++
}

func (s *flatStore) heard(sidx int32, key packet.Key, now time.Duration) bool {
	ri := s.find(anyKey(key))
	if ri < 0 {
		return false
	}
	r := s.recs.at(ri)
	if !live(r.anyExp, now) {
		return false // every sender expired with it
	}
	for c, base := r.head, int32(0); c != noChunk; base += chunkSlots {
		ch := s.chunks.at(c)
		for i := range min(r.n-base, chunkSlots) {
			if ch.sidx[i] == sidx {
				return live(ch.exp[i], now)
			}
		}
		c = ch.next
	}
	return false
}

func (s *flatStore) heardAny(key packet.Key, now time.Duration) bool {
	ri := s.find(anyKey(key))
	return ri >= 0 && live(s.recs.at(ri).anyExp, now)
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
	s.chunks.at(c).next = noChunk
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
// passed, with all of its sender slots, and returns the slots and records
// freed. A live record keeps its expired sender slots until it goes:
// readers check each slot's expiry, and a sender heard again reuses its
// slot. Then the key table, the records and the slab give back the memory
// a burst left spare.
func (s *flatStore) sweepCaches(now time.Duration) int {
	n := 0
	for i := int32(0); i < s.nrecs; {
		r := s.recs.at(i)
		if live(r.anyExp, now) {
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
