package watch

import (
	"fmt"
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
// keys becoming nbrIdx) as the oracle logStore is differentially tested
// against: each guard keeps its own heard facts, one map entry per
// (sender, key) heard and one per key heard, plus one per outstanding
// expectation. It never reclaims an expired fact: readers check the
// expiry, and the tests that use it are short.
type mapStore struct {
	ttl        time.Duration
	pending    map[mapKey]bool              // outstanding expectations
	heardAt    map[mapKey]time.Duration     // expiry instants per (sender, key)
	heardAnyAt map[packet.Key]time.Duration // expiry instants per key, any sender
}

// newMapBuffer is New over the map oracle.
func newMapBuffer(k sim.Clock, cfg Config, onAccuse func(Accusation), onThreshold func(field.NodeID)) *Buffer {
	return newWithStore(k, cfg, func(b *Buffer) storeBackend { return newMapStore(b) }, onAccuse, onThreshold)
}

func newMapStore(b *Buffer) *mapStore {
	return &mapStore{
		ttl:        b.cfg.cacheTTL(),
		pending:    make(map[mapKey]bool),
		heardAt:    make(map[mapKey]time.Duration),
		heardAnyAt: make(map[packet.Key]time.Duration),
	}
}

func (s *mapStore) recordHeard(sidx int32, key packet.Key, now time.Duration) bool {
	hk := mapKey{sidx, key}
	s.heardAt[hk] = now + s.ttl
	s.heardAnyAt[key] = now + s.ttl
	met := s.pending[hk]
	delete(s.pending, hk)
	return met
}

// noop reports whether expect(fidx, key, now) would arm nothing.
func (s *mapStore) noop(fidx int32, key packet.Key, now time.Duration) bool {
	return s.pending[mapKey{fidx, key}] || s.heard(fidx, key, now)
}

func (s *mapStore) expect(fidx int32, key packet.Key, now time.Duration) bool {
	if s.noop(fidx, key, now) {
		return false
	}
	s.pending[mapKey{fidx, key}] = true
	return true
}

// settled never answers early: the oracle decides every expectation the
// slow way, against which logStore's fast path is checked.
func (s *mapStore) settled(packet.Key, time.Duration) Forwarders { return 0 }

func (s *mapStore) waiting(fidx int32, key packet.Key) bool { return s.pending[mapKey{fidx, key}] }

func (s *mapStore) clearExpect(fidx int32, key packet.Key) {
	delete(s.pending, mapKey{fidx, key})
}

func (s *mapStore) heard(sidx int32, key packet.Key, now time.Duration) bool {
	exp, ok := s.heardAt[mapKey{sidx, key}]
	return ok && live(exp, now)
}

func (s *mapStore) heardAny(key packet.Key, now time.Duration) bool {
	exp, ok := s.heardAnyAt[key]
	return ok && live(exp, now)
}

// auditStore runs a buffer on its production store while a map oracle,
// fed the same calls, checks every answer: heard, heard-any, expect and
// whether a forward met an expectation and whether one is waiting must
// match, and every forwarder settled reports must be one on which the
// oracle says expect would arm nothing. The buffer sees the production
// store's answers. Each mismatch goes to report, and calls counts the
// answers checked, by kind: a settled probe counts once under Settled and
// once under SettledTrue for each forwarder it reports.
type auditStore struct {
	prod   storeBackend
	oracle *mapStore
	b      *Buffer
	report func(string)
	calls  *AuditCounts
}

func (a *auditStore) mismatch(what string, sidx int32, key packet.Key, got, want bool) {
	a.report(fmt.Sprintf("guard %d at %v: %s(%d, %v) = %v, oracle %v",
		a.b.cfg.Self, a.b.kernel.Now(), what, a.b.idx.ID(sidx), key, got, want))
}

func (a *auditStore) recordHeard(sidx int32, key packet.Key, now time.Duration) bool {
	got, want := a.prod.recordHeard(sidx, key, now), a.oracle.recordHeard(sidx, key, now)
	a.calls.Record++
	if got != want {
		a.mismatch("recordHeard", sidx, key, got, want)
	}
	return got
}

func (a *auditStore) heard(sidx int32, key packet.Key, now time.Duration) bool {
	got, want := a.prod.heard(sidx, key, now), a.oracle.heard(sidx, key, now)
	a.calls.Heard++
	if got != want {
		a.mismatch("heard", sidx, key, got, want)
	}
	return got
}

func (a *auditStore) heardAny(key packet.Key, now time.Duration) bool {
	got, want := a.prod.heardAny(key, now), a.oracle.heardAny(key, now)
	a.calls.HeardAny++
	if got != want {
		a.mismatch("heardAny", -1, key, got, want)
	}
	return got
}

func (a *auditStore) expect(fidx int32, key packet.Key, now time.Duration) bool {
	got, want := a.prod.expect(fidx, key, now), a.oracle.expect(fidx, key, now)
	a.calls.Expect++
	if got != want {
		a.mismatch("expect", fidx, key, got, want)
	}
	return got
}

func (a *auditStore) settled(key packet.Key, now time.Duration) Forwarders {
	got := a.prod.settled(key, now)
	a.calls.Settled++
	for fidx := int32(0); fidx < settledBits; fidx++ {
		if !got.Has(fidx) {
			continue
		}
		a.calls.SettledTrue++
		if !a.oracle.noop(fidx, key, now) {
			a.mismatch("settled", fidx, key, true, false)
		}
	}
	return got
}

func (a *auditStore) waiting(fidx int32, key packet.Key) bool {
	got, want := a.prod.waiting(fidx, key), a.oracle.waiting(fidx, key)
	a.calls.Waiting++
	if got != want {
		a.mismatch("waiting", fidx, key, got, want)
	}
	return got
}

func (a *auditStore) clearExpect(fidx int32, key packet.Key) {
	a.prod.clearExpect(fidx, key)
	a.oracle.clearExpect(fidx, key)
}
