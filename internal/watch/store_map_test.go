package watch

import (
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// mapKey keys the per-neighbor collections: the watched node's dense
// index plus the packet identity.
type mapKey struct {
	idx int32
	key packet.Key
}

// mapStore is the original map-shaped storage, preserved (modulo NodeID
// keys becoming nbrIdx) as the oracle flatStore is differentially tested
// against: one map entry per (sender, key) and one per key. Its sweeps
// iterate Go maps in randomized order, which is safe exactly because sweeps
// are delete-only housekeeping. flatStore's sweep reclaims a packet's
// sender slots only with the whole packet record, later than this store
// deletes an expired sender; readers check expiries, so no query can tell.
type mapStore struct {
	pending    map[mapKey]*pendingEntry
	heardAt    map[mapKey]time.Duration     // expiry instants per (sender, key)
	heardAnyAt map[packet.Key]time.Duration // expiry instants per key, any sender
	malcs      map[int32]*malcRecord
}

// newMapBuffer is New over the map oracle.
func newMapBuffer(k sim.Clock, cfg Config, onAccuse func(Accusation), onThreshold func(field.NodeID)) *Buffer {
	return newWithStore(k, cfg, newMapStore(), onAccuse, onThreshold)
}

func newMapStore() *mapStore {
	return &mapStore{
		pending:    make(map[mapKey]*pendingEntry),
		heardAt:    make(map[mapKey]time.Duration),
		heardAnyAt: make(map[packet.Key]time.Duration),
		malcs:      make(map[int32]*malcRecord),
	}
}

func (s *mapStore) pendingGet(fidx int32, key packet.Key) (*pendingEntry, bool) {
	e, ok := s.pending[mapKey{fidx, key}]
	return e, ok
}

func (s *mapStore) pendingPut(fidx int32, key packet.Key, e *pendingEntry) {
	s.pending[mapKey{fidx, key}] = e
}

func (s *mapStore) pendingDelete(fidx int32, key packet.Key) {
	delete(s.pending, mapKey{fidx, key})
}

func (s *mapStore) pendingLen() int { return len(s.pending) }

func (s *mapStore) recordHeard(sidx int32, key packet.Key, exp time.Duration) {
	s.heardAt[mapKey{sidx, key}] = exp
	s.heardAnyAt[key] = exp
}

func (s *mapStore) heard(sidx int32, key packet.Key, now time.Duration) bool {
	exp, ok := s.heardAt[mapKey{sidx, key}]
	return ok && live(exp, now)
}

func (s *mapStore) heardAny(key packet.Key, now time.Duration) bool {
	exp, ok := s.heardAnyAt[key]
	return ok && live(exp, now)
}

func (s *mapStore) malc(aidx int32) *malcRecord {
	return s.malcs[aidx] // nil when absent
}

func (s *mapStore) ensureMalc(aidx int32) *malcRecord {
	rec, ok := s.malcs[aidx]
	if !ok {
		rec = &malcRecord{}
		s.malcs[aidx] = rec
	}
	return rec
}

func (s *mapStore) sweepCaches(now time.Duration) int {
	n := 0
	for hk, exp := range s.heardAt {
		if exp <= now {
			delete(s.heardAt, hk)
			n++
		}
	}
	for key, exp := range s.heardAnyAt {
		if exp <= now {
			delete(s.heardAnyAt, key)
			n++
		}
	}
	return n
}

func (s *mapStore) sweepMalc(now, window time.Duration) int {
	n := 0
	for idx, rec := range s.malcs {
		if rec.latest+window < now && !rec.fired {
			delete(s.malcs, idx)
			n++
		}
	}
	return n
}

func (s *mapStore) cacheSizes() (heard, heardAny int) {
	return len(s.heardAt), len(s.heardAnyAt)
}
