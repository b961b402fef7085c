package watch

import (
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
// that lives about as long as its expectations do.
//
//   - keys maps the packed packet identity to its record's position in
//     recs (see internal/flatmap); recs is dense and paged, and the sweep
//     fills a freed record's slot with the last one.
//   - A record's pend mask has bit i set while an expectation on
//     forwarder i is outstanding, and npend counts the outstanding ones
//     over every forwarder index. An expectation on a forwarder at or
//     past settledBits is also a key in wide, by packet and forwarder.
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
// on it. The store sweeps when it is about to create a record and the
// record count has doubled since the last sweep (see record), so it holds
// at most twice the records outstanding at that sweep, or one page.
type logStore struct {
	log  *Log
	idx  *neighbor.Index
	self field.NodeID
	inc  uint64 // this incarnation's stamp on the log
	ttl  time.Duration

	// places caches, by sidx, this guard's place in that sender's
	// receiver list on the log (see placeOf); 0 is not yet known. Every
	// sender recorded in this incarnation has a place here, so these are
	// the only senders heardAny need ask the log about.
	places []uint8

	keys    flatmap.Table[int32]
	recs    paged[guardRecord]
	nrecs   int32
	sweepAt int32 // record count at which the next new record sweeps first

	memoKey flatmap.Key // zero when the memo is empty
	memoRec int32       // recs position for memoKey, or -1: no record

	// wide holds the outstanding expectations on forwarders at or past
	// settledBits, keyed by pairKey(forwarder, packet). No benchmark
	// workload armed one.
	wide flatmap.Table[struct{}]
}

// guardRecord is one packet identity this guard expects forwards of.
type guardRecord struct {
	key    flatmap.Key
	oldest time.Duration // earliest expiry among the heard bits
	pend   uint32        // forwarders below settledBits with an expectation
	heard  uint32        // cached heard senders below settledBits
	npend  int32         // outstanding expectations, every forwarder index
}

// settledBits is the width of a record's masks. Guards index their
// neighbors densely from 0, and no forwarder index reached 18 on the
// benchmark workloads; a wider index takes the slow path, through wide.
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
		inc:     log.join(b.cfg.cacheTTL()),
		ttl:     b.cfg.cacheTTL(),
		sweepAt: pageSize,
		memoRec: -1,
	}
}

func anyKey(key packet.Key) flatmap.Key {
	return flatmap.PackKey(uint32(key.Origin), key.Seq, uint8(key.Type))
}

// lookup returns the recs position of k's record, or -1, through the memo.
func (s *logStore) lookup(k flatmap.Key) int32 {
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

// record returns k's record, creating an empty one when there is none. A
// store at its sweep point sweeps before it creates one.
func (s *logStore) record(k flatmap.Key) *guardRecord {
	ri := s.lookup(k)
	if ri < 0 {
		if s.nrecs >= s.sweepAt {
			s.sweepCaches()
		}
		ri = s.nrecs
		s.recs.reserve(ri)
		*s.recs.at(ri) = guardRecord{key: k}
		s.nrecs++
		s.keys.Put(k, ri)
		s.memoKey, s.memoRec = k, ri
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

// wideKey is wide's key for forwarder fidx, at or past settledBits, and
// the packet k.
func (s *logStore) wideKey(fidx int32, k flatmap.Key) flatmap.Key {
	return pairKey(s.idx.ID(fidx), k)
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

func (s *logStore) recordHeard(sidx int32, key packet.Key, now time.Duration) bool {
	k := anyKey(key)
	own, pos, _ := s.placeOf(sidx, true)
	s.log.record(pairKey(s.idx.ID(sidx), k), own, pos, s.self, now)

	ri := s.lookup(k)
	if ri < 0 {
		return false // no record, so no expectation on key
	}
	r := s.recs.at(ri)
	var met bool
	if uint32(sidx) >= settledBits {
		met = s.wide.Delete(s.wideKey(sidx, k))
	} else {
		bit := uint32(1) << sidx
		met = r.pend&bit != 0
		r.pend &^= bit
		r.cache(bit, now+s.ttl, now)
	}
	if met {
		r.npend--
	}
	return met
}

// heard asks the record's cache, then the log, and caches what the log
// says in the record, if there is one: the fabrication check asks about
// the previous hop of every copy, most often the sender of the packet's
// first copy, which was heard before the record was made.
func (s *logStore) heard(sidx int32, key packet.Key, now time.Duration) bool {
	k := anyKey(key)
	ri := s.lookup(k)
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
	if ri := s.lookup(k); ri >= 0 {
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
	} else if _, ok := s.wide.Get(s.wideKey(fidx, k)); ok {
		return false
	}
	if exp, ok := s.logHeard(fidx, k, now); ok {
		if bit != 0 {
			r.cache(bit, exp, now)
		}
		return false
	}
	if bit == 0 {
		s.wide.Put(s.wideKey(fidx, k), struct{}{})
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
	ri := s.lookup(anyKey(key))
	if ri < 0 {
		return false
	}
	r := s.recs.at(ri)
	bit := uint32(1) << fidx
	return r.pend&bit != 0 || r.cached(bit, now)
}

func (s *logStore) waiting(fidx int32, key packet.Key) bool {
	k := anyKey(key)
	if uint32(fidx) >= settledBits {
		_, ok := s.wide.Get(s.wideKey(fidx, k))
		return ok
	}
	ri := s.lookup(k)
	return ri >= 0 && s.recs.at(ri).pend&(1<<fidx) != 0
}

func (s *logStore) clearExpect(fidx int32, key packet.Key) {
	k := anyKey(key)
	r := s.recs.at(s.lookup(k))
	if uint32(fidx) < settledBits {
		r.pend &^= 1 << fidx
	} else {
		s.wide.Delete(s.wideKey(fidx, k))
	}
	r.npend--
}

// sweepCaches frees every record on which no expectation is outstanding,
// and sets the next sweep point at twice the records left, or one page.
// The pages and the key table keep the room the records need up to that
// point, and give back the rest: a guard's records come and go within
// about a second, so storage sized for the records left would only be
// grown again before the next sweep.
func (s *logStore) sweepCaches() {
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
	s.sweepAt = max(2*s.nrecs, pageSize)
	if n == 0 {
		return
	}
	s.memoKey = flatmap.Key{}
	s.keys.ShrinkFor(int(s.sweepAt))
	s.wide.Shrink()
	s.recs.trim(int(s.sweepAt+pageMask) >> pageShift)
}
