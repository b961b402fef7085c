package watch

import (
	"math/bits"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/flatmap"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// logStore is the buffer's storage layout. Heard facts go to the
// scenario's reception log (see Log), shared by every guard, which stores
// each transmission once. The guard itself keeps only what is its own:
// which expectations are outstanding, and a cache of the answers the
// settled fast path needs, both in one small record per packet identity
// that lives about as long as its expectations do; plus its MalC records,
// in a slice indexed by nbrIdx.
//
//   - keys maps the packed packet identity to its record's position in
//     recs (see internal/flatmap); recs is dense and paged, and the sweep
//     fills a freed record's slot with the last one.
//   - A record's pend mask has bit i set while an expectation on
//     forwarder i is outstanding, and npend counts the outstanding ones
//     over every forwarder index, including those past settledBits; the
//     deadline queue holds their refs.
//   - A record's heard mask caches senders this guard heard send the
//     packet, and oldest is the earliest expiry among them: while now is
//     below it, every bit in heard is a live fact. The cache is filled
//     when a record's sender is heard and when expect finds the fact in
//     the log; it is only ever a shortcut to the log's answer.
//
// A one-entry memo remembers the last packet identity resolved, and its
// record (or its absence): the detector checks, records and then expects
// against the same packet for every guarded neighbor of one overheard
// frame, so the table is probed once per frame.
//
// A record goes at the first sweep that finds no expectation outstanding
// on it. The expiry wheel sweeps a busy guard every epoch, so a record
// lives about τ plus one epoch, not CacheTTL.
type logStore struct {
	log  *Log
	idx  *neighbor.Index
	self field.NodeID
	inc  uint64 // this incarnation's stamp on the log
	ttl  time.Duration
	q    *deadlineQueue // the buffer's, which holds the expectations' refs

	// places caches, by sidx, this guard's place in that sender's
	// receiver list on the log (see placeOf); 0 is not yet known. Every
	// sender recorded in this incarnation has a place here, so these are
	// the only senders heardAny need ask the log about.
	places []uint8

	keys  flatmap.Table[int32]
	recs  paged[guardRecord]
	nrecs int32
	peak  int32 // most records held since the last sweep that freed any

	memoKey flatmap.Key // zero when the memo is empty
	memoRec int32       // recs position for memoKey, or -1: no record

	// malc is dense by nbrIdx; malcUsed marks live records so a swept
	// (reset-in-place) slot is indistinguishable from a never-used one.
	malcs    []malcRecord
	malcUsed []bool
}

// guardRecord is one packet identity this guard expects forwards of.
type guardRecord struct {
	key    flatmap.Key
	oldest time.Duration // earliest expiry among the heard bits
	pend   uint32        // forwarders below settledBits with an expectation
	heard  uint32        // cached heard senders below settledBits
	npend  int32         // outstanding expectations, every forwarder index
	ref0   uint32        // low bits of the first one's ref on the queue
}

// settledBits is the width of a record's masks. Guards index their
// neighbors densely from 0, and no forwarder index reached 18 on the
// benchmark workloads; a wider index takes the slow path.
const settledBits = 32

// Cached places (see logStore.places): 1 + a place below maskBits, or one
// of these.
const (
	placeOver = maskBits + 1 // at or past maskBits: the log's overflow set
	placeOwn  = maskBits + 2 // the guard itself: its own sends
)

// pageShift sets the record page: 8 records, 320 bytes.
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

// newLogStore returns b's store: on the configured log, or on a log of
// its own.
func newLogStore(b *Buffer) *logStore {
	log := b.cfg.Log
	if log == nil {
		log = NewLog(sim.KernelOf(b.kernel))
	}
	return &logStore{
		log:     log,
		idx:     b.idx,
		self:    b.cfg.Self,
		inc:     log.join(b.cfg.CacheTTL),
		ttl:     b.cfg.CacheTTL,
		q:       &b.deadlines,
		memoRec: -1,
	}
}

func anyKey(key packet.Key) flatmap.Key {
	return flatmap.PackKey(uint32(key.Origin), key.Seq, uint8(key.Type))
}

// find returns the recs position of k's record, or -1, through the memo.
func (s *logStore) find(k flatmap.Key) int32 {
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

// record returns k's record, creating an empty one when there is none.
func (s *logStore) record(k flatmap.Key) *guardRecord {
	ri := s.find(k)
	if ri < 0 {
		ri = s.nrecs
		s.recs.reserve(ri)
		*s.recs.at(ri) = guardRecord{key: k}
		s.nrecs++
		s.peak = max(s.peak, s.nrecs)
		s.keys.Put(k, ri)
		s.memoRec = ri
	}
	return s.recs.at(ri)
}

// cache notes in r that the sender at bit was heard, live until exp. A
// cache whose oldest fact has died is emptied first.
func (r *guardRecord) cache(bit uint32, exp, now time.Duration) {
	if r.heard != 0 && !live(r.oldest, now) {
		r.heard = 0
	}
	if r.heard == 0 || exp < r.oldest {
		r.oldest = exp
	}
	r.heard |= bit
}

// cached reports whether r's cache holds the sender at bit, live at now.
func (r *guardRecord) cached(bit uint32, now time.Duration) bool {
	return r.heard&bit != 0 && live(r.oldest, now)
}

// outstanding reports whether (fidx, key) holds an expectation, for a
// forwarder index past settledBits, and returns its ref: only then is the
// queue searched.
func (s *logStore) outstanding(r *guardRecord, fidx int32, key packet.Key) (uint64, bool) {
	if r.npend <= int32(bits.OnesCount32(r.pend)) {
		return 0, false
	}
	return s.q.find(fidx, key, r.ref0)
}

// placeOf returns where the guard sits among sidx's receivers on the log:
// own for its own sends, else pos, at least maskBits when past the mask.
// With add set a guard not yet on the list joins it; otherwise ok is false
// then, and nothing is cached.
func (s *logStore) placeOf(sidx int32, add bool) (own bool, pos int, ok bool) {
	var c uint8
	if int(sidx) < len(s.places) {
		c = s.places[sidx]
	}
	if c == 0 {
		sender := s.idx.ID(sidx)
		if sender == s.self {
			c = placeOwn
		} else {
			p, on := s.log.place(sender, s.self, add)
			if !on {
				return false, 0, false
			}
			c = uint8(min(p, maskBits) + 1)
		}
		for int(sidx) >= len(s.places) {
			s.places = append(s.places, 0)
		}
		s.places[sidx] = c
	}
	return c == placeOwn, int(c) - 1, true
}

// logHeard asks the log whether this incarnation heard sidx send the
// packet k, live at now, and returns the fact's expiry.
func (s *logStore) logHeard(sidx int32, k flatmap.Key, now time.Duration) (time.Duration, bool) {
	own, pos, ok := s.placeOf(sidx, false)
	if !ok {
		return 0, false
	}
	return s.log.heard(pairKey(s.idx.ID(sidx), k), own, pos, s.self, s.inc, s.ttl, now)
}

func (s *logStore) recordHeard(sidx int32, key packet.Key, now time.Duration) (uint64, bool) {
	k := anyKey(key)
	own, pos, _ := s.placeOf(sidx, true)
	s.log.record(pairKey(s.idx.ID(sidx), k), own, pos, s.self, now)

	ri := s.find(k)
	if ri < 0 {
		return 0, false // no record, so no expectation on key
	}
	r := s.recs.at(ri)
	var ref uint64
	met := false
	if uint32(sidx) >= settledBits {
		ref, met = s.outstanding(r, sidx, key)
	} else {
		bit := uint32(1) << sidx
		if met = r.pend&bit != 0; met {
			ref, _ = s.q.find(sidx, key, r.ref0)
			r.pend &^= bit
		}
		r.cache(bit, now+s.ttl, now)
	}
	if met {
		r.npend--
	}
	return ref, met
}

// heard asks the record's cache, then the log, and caches what the log
// says in the record, if there is one: the fabrication check asks about
// the previous hop of every copy, most often the sender of the packet's
// first copy, which was heard before the record was made.
func (s *logStore) heard(sidx int32, key packet.Key, now time.Duration) bool {
	k := anyKey(key)
	ri := s.find(k)
	bit := uint32(0)
	if uint32(sidx) < settledBits && ri >= 0 {
		bit = 1 << sidx
		if s.recs.at(ri).cached(bit, now) {
			return true
		}
	}
	exp, ok := s.logHeard(sidx, k, now)
	if ok && bit != 0 {
		s.recs.at(ri).cache(bit, exp, now)
	}
	return ok
}

// heardAny asks the record's cache, then the log about each sender with
// a known place.
func (s *logStore) heardAny(key packet.Key, now time.Duration) bool {
	k := anyKey(key)
	if ri := s.find(k); ri >= 0 {
		if r := s.recs.at(ri); r.heard != 0 && live(r.oldest, now) {
			return true
		}
	}
	for sidx, c := range s.places {
		if c == 0 {
			continue
		}
		if _, ok := s.logHeard(int32(sidx), k, now); ok {
			return true
		}
	}
	return false
}

func (s *logStore) expect(fidx int32, key packet.Key, now time.Duration) bool {
	k := anyKey(key)
	r := s.record(k)
	bit := uint32(0)
	if uint32(fidx) < settledBits {
		bit = 1 << fidx
		if r.pend&bit != 0 || r.cached(bit, now) {
			return false
		}
	} else if _, ok := s.outstanding(r, fidx, key); ok {
		return false
	}
	if exp, ok := s.logHeard(fidx, k, now); ok {
		if bit != 0 {
			r.cache(bit, exp, now)
		}
		return false
	}
	if r.npend == 0 {
		r.ref0 = uint32(s.q.next())
	}
	r.pend |= bit
	r.npend++
	return true
}

// settled answers from key's record alone: fidx is expected, or cached as
// heard while every cached fact is live. Any other case, including a fidx
// past the masks, answers false and leaves the question to expect.
func (s *logStore) settled(fidx int32, key packet.Key, now time.Duration) bool {
	if uint32(fidx) >= settledBits {
		return false
	}
	ri := s.find(anyKey(key))
	if ri < 0 {
		return false
	}
	r := s.recs.at(ri)
	bit := uint32(1) << fidx
	return r.pend&bit != 0 || r.cached(bit, now)
}

func (s *logStore) clearExpect(fidx int32, key packet.Key) {
	r := s.recs.at(s.find(anyKey(key)))
	if uint32(fidx) < settledBits {
		r.pend &^= 1 << fidx
	}
	r.npend--
}

// moved keeps ref0 at or before the first outstanding deadline of key:
// compaction moved the first of a run of them to ref.
func (s *logStore) moved(key packet.Key, ref uint64) {
	if ri := s.find(anyKey(key)); ri >= 0 {
		if r := s.recs.at(ri); uint32(ref)-r.ref0 > uint32(ref)-uint32(s.q.base) {
			r.ref0 = uint32(ref)
		}
	}
}

func (s *logStore) malc(aidx int32) *malcRecord {
	if int(aidx) >= len(s.malcs) || !s.malcUsed[aidx] {
		return nil
	}
	return &s.malcs[aidx]
}

func (s *logStore) ensureMalc(aidx int32) *malcRecord {
	for int(aidx) >= len(s.malcs) {
		s.malcs = append(s.malcs, malcRecord{})
		s.malcUsed = append(s.malcUsed, false)
	}
	s.malcUsed[aidx] = true
	return &s.malcs[aidx]
}

// sweepCaches frees every record on which no expectation is outstanding,
// and returns how many it freed. Then the pages give back what the
// records left do not need, and the key table what the most records held
// since the previous sweep did not: a guard's records come and go within
// about a second, so a table sized for the records left would only be
// rehashed larger again by the next sweep.
func (s *logStore) sweepCaches(time.Duration) int {
	n := 0
	for i := int32(0); i < s.nrecs; {
		r := s.recs.at(i)
		if r.npend > 0 {
			i++
			continue
		}
		n++
		s.keys.Delete(r.key)
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
	s.keys.ShrinkFor(int(s.peak))
	s.recs.trim(keep(s.nrecs))
	s.peak = s.nrecs
	return n
}

// sweepMalc resets records whose newest observation fell strictly out of
// the window without firing. Reset-in-place keeps the slices' capacity for
// the slot's next incarnation; slot order makes the pass deterministic.
func (s *logStore) sweepMalc(now, window time.Duration) int {
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
