package watch

import (
	"time"

	"liteworp/internal/packet"
)

// storeBackend is the seam between the buffer's semantics and its storage
// layout. Every collection is keyed by the watched node's dense index
// (nbrIdx) plus the packet identity; the buffer owns interning, expiry
// conventions, stats, callbacks and timers, the store owns nothing but
// bytes. Production buffers use flatStore; the tests build buffers on a
// Go-map store as the oracle (store_map_test.go), and the randomized
// differential suite in store_test.go holds the two to operation-for-
// operation equivalence. The oracle's settled always answers false, so
// the suite also holds flatStore's settled fast path to the chain walk.
type storeBackend interface {
	// Watch records: per (sender, key), a heard expiry or an outstanding
	// expectation, identified by the ref of its deadline on the buffer's
	// queue. The two exclude each other: expect arms only on a sender not
	// heard, and hearing the sender resolves the expectation. Recorded
	// expiries never decrease (the buffer records with now+CacheTTL).
	//
	// recordHeard records sidx sending key until exp, and returns the ref
	// of the expectation on (sidx, key) this resolves, if there was one.
	recordHeard(sidx int32, key packet.Key, exp time.Duration) (ref uint64, met bool)
	heard(sidx int32, key packet.Key, now time.Duration) bool
	heardAny(key packet.Key, now time.Duration) bool
	// expect notes expectation ref on (fidx, key), unless fidx was heard
	// sending key (live at now) or an expectation on it is outstanding,
	// and reports whether it did.
	expect(fidx int32, key packet.Key, ref uint64, now time.Duration) bool
	// settled is true only if expect(fidx, key, _, now) would return
	// false and change nothing: an O(1) answer for the common no-op
	// call. False means only that the store does not know; the caller
	// then asks expect. It changes no record.
	settled(fidx int32, key packet.Key, now time.Duration) bool
	// clearExpect removes the outstanding expectation on (fidx, key),
	// which the buffer resolved as a drop.
	clearExpect(fidx int32, key packet.Key)
	// rekey gives the outstanding expectation on (fidx, key) the ref of
	// its deadline's new place in the compacted queue.
	rekey(fidx int32, key packet.Key, ref uint64)

	// MalC records. The pointer returned by ensureMalc is transient: it
	// may point into dense backing storage and is invalidated by any
	// subsequent store call (see Buffer.accuse).
	malc(aidx int32) *malcRecord
	ensureMalc(aidx int32) *malcRecord

	// Housekeeping sweeps; each returns how many records it reclaimed. A
	// record holding an outstanding expectation is never reclaimed.
	sweepCaches(now time.Duration) int
	sweepMalc(now, window time.Duration) int

	// cacheSizes reports the record counts of the two caches —
	// introspection for tests.
	cacheSizes() (heard, heardAny int)
}
