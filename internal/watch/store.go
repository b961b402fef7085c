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
// operation equivalence.
type storeBackend interface {
	// Outstanding watch deadlines (the paper's watch buffer proper).
	pendingGet(fidx int32, key packet.Key) (*pendingEntry, bool)
	pendingPut(fidx int32, key packet.Key, e *pendingEntry)
	pendingDelete(fidx int32, key packet.Key)
	pendingLen() int

	// Heard-transmission caches: per (sender, key) and per key. The
	// per-sender cache doubles as the duplicate-flood suppression that
	// Expect consults. Recorded expiries never decrease (the buffer
	// records with now+CacheTTL).
	recordHeard(sidx int32, key packet.Key, exp time.Duration)
	heard(sidx int32, key packet.Key, now time.Duration) bool
	heardAny(key packet.Key, now time.Duration) bool

	// MalC records. The pointer returned by ensureMalc is transient: it
	// may point into dense backing storage and is invalidated by any
	// subsequent store call (see Buffer.accuse).
	malc(aidx int32) *malcRecord
	ensureMalc(aidx int32) *malcRecord

	// Housekeeping sweeps; each returns how many records it reclaimed.
	sweepCaches(now time.Duration) int
	sweepMalc(now, window time.Duration) int

	// cacheSizes reports the record counts of the two caches —
	// introspection for tests.
	cacheSizes() (heard, heardAny int)
}
