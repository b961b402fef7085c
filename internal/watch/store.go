package watch

import (
	"time"

	"liteworp/internal/packet"
)

// storeBackend is the seam between the buffer's semantics and its storage
// layout. Every collection is keyed by the watched node's dense index
// (nbrIdx) plus the packet identity; the buffer owns interning, stats,
// callbacks, timers, the deadline queue and the MalC records, the store
// owns the heard facts and is the only record of which expectations are
// outstanding. Production buffers use logStore, which keeps the heard
// facts in the scenario's reception log; the tests build buffers on a
// Go-map store as the oracle (store_map_test.go), and the randomized
// differential suite in store_test.go holds the two to
// operation-for-operation equivalence. The oracle's settled always answers
// false, so the suite also holds logStore's settled fast path to the slow
// path.
type storeBackend interface {
	// recordHeard notes that the guard heard sidx send key at now; the
	// fact is live for cacheTTL. It reports whether this met an
	// outstanding expectation on (sidx, key), which it then resolves.
	recordHeard(sidx int32, key packet.Key, now time.Duration) (met bool)
	heard(sidx int32, key packet.Key, now time.Duration) bool
	heardAny(key packet.Key, now time.Duration) bool
	// expect notes an outstanding expectation on (fidx, key), unless fidx
	// was heard sending key (live at now) or one is outstanding already,
	// and reports whether it did.
	expect(fidx int32, key packet.Key, now time.Duration) bool
	// settled is true only if expect(fidx, key, now) would return false
	// and change nothing: an O(1) answer for the common no-op call.
	// False means only that the store does not know; the caller then asks
	// expect. It changes no answer.
	settled(fidx int32, key packet.Key, now time.Duration) bool
	// waiting reports whether the expectation on (fidx, key) is
	// outstanding: neither met by recordHeard nor cleared.
	waiting(fidx int32, key packet.Key) bool
	// clearExpect removes the outstanding expectation on (fidx, key),
	// which the buffer resolved as a drop.
	clearExpect(fidx int32, key packet.Key)
}
