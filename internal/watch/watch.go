// Package watch implements the local-monitoring bookkeeping of LITEWORP
// (paper §4.2): the watch buffer in which a guard records control packets
// it overhears going into a monitored neighbor, the malicious counters
// (MalC) per watched node, and the cache of recently heard transmissions
// used to distinguish a legitimate forward from a fabrication.
//
// The package is pure mechanism; the rules for *when* to expect a forward
// and *what* counts as a fabrication live in the core engine that composes
// this buffer with the neighbor table.
//
// Storage layout: the buffer addresses watched nodes by their dense
// neighbor index (nbrIdx, see neighbor.Index) and keeps its three
// collections — pending watches, the heard cache and MalC records —
// behind the storeBackend seam. flatStore (store_flat.go) keeps pending
// watches in an open-addressed table, the heard cache as one record per
// overheard packet with its senders in a chunked slab, and MalC records in
// a slice by nbrIdx; the tests check it against a Go-map oracle.
package watch

import (
	"time"

	"liteworp/internal/field"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// Reason classifies a malicious-activity observation.
type Reason uint8

// Observation kinds: a node transmitting a control packet it was never
// given (fabrication, V_f), and a node failing to forward a control packet
// within the deadline tau (drop, V_d). The trailing kinds are reserved for
// the rival detector strategies, which emit their verdicts through the
// same Accusation type: a statistically anomalous announced neighbor
// count, and a claimed link longer than the radio range.
const (
	ReasonFabrication Reason = iota + 1
	ReasonDrop
	ReasonAnomaly
	ReasonRange
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonFabrication:
		return "fabrication"
	case ReasonDrop:
		return "drop"
	case ReasonAnomaly:
		return "neighbor-anomaly"
	case ReasonRange:
		return "range-violation"
	default:
		return "unknown"
	}
}

// Accusation is emitted every time a guard observes malicious activity.
type Accusation struct {
	Accused field.NodeID
	Reason  Reason
	// MalC is the windowed malicious counter after this observation.
	MalC int
	// Key identifies the packet involved.
	Key packet.Key
	// At is the virtual time of the observation.
	At time.Duration
}

// Config parameterizes the buffer.
type Config struct {
	// Timeout is tau: how long a guard waits for the monitored node to
	// forward a packet before accusing it of dropping.
	Timeout time.Duration
	// FabricationIncrement (V_f) and DropIncrement (V_d) are the MalC
	// increments per observation; the paper weights them by the severity
	// of the malicious activity detected.
	FabricationIncrement int
	DropIncrement        int
	// Threshold is C_t: when a node's windowed MalC reaches it, the guard
	// revokes the node and alerts its neighbors.
	Threshold int
	// Window is T: observations older than this no longer count toward
	// MalC (the paper's analysis assumes fabrications "occur within a
	// certain time window, T").
	Window time.Duration
	// CacheTTL bounds how long heard-transmission records are kept. It
	// defaults to 10*Timeout; it only needs to outlive the propagation of
	// one flood.
	CacheTTL time.Duration
	// DropFilter, when non-nil, is consulted as a watch entry expires. A
	// true return suppresses the drop accusation (the entry is still
	// removed and counted under FilteredDrops). The engine uses it to
	// distinguish a crashed neighbor — total silence — from a live one
	// selectively refusing to forward.
	DropFilter func(accused field.NodeID, key packet.Key) bool
	// Wheel, when non-nil, is the shared expiry wheel the buffer's
	// housekeeping TTLs (heard caches, MalC window pruning) ride
	// instead of per-record kernel timers. Nil means the buffer builds a
	// private wheel over its own clock. The watch deadline tau is semantic
	// — a drop accusation must fire at exactly Timeout — and always keeps
	// an exact timer, armed on the clock's lane for Timeout.
	Wheel *sim.Wheel
	// Index, when non-nil, is the node incarnation's shared dense
	// neighbor index (neighbor.Table.Index()). Nil means the buffer
	// builds a private index — correct, but then nbrIdx values are not
	// shared with the routing layer or scoreboard.
	Index *neighbor.Index
}

// live is the package-wide expiry convention: a record whose stored expiry
// is exp is alive strictly before exp and dead at exp. Every reader
// (Heard, HeardAny, the Expect duplicate-forward check) and every sweep
// (delete when exp <= now) uses this single boundary.
func live(exp, now time.Duration) bool { return now < exp }

// DefaultConfig returns the Table 2 parameterization (tau on the order of
// a second, T = 200 time units, C_t and the increments chosen so a handful
// of observations cross the threshold).
func DefaultConfig() Config {
	return Config{
		Timeout:              500 * time.Millisecond,
		FabricationIncrement: 3,
		DropIncrement:        1,
		Threshold:            16,
		Window:               200 * time.Second,
	}
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = DefaultConfig().Timeout
	}
	if c.FabricationIncrement <= 0 {
		c.FabricationIncrement = 3
	}
	if c.DropIncrement <= 0 {
		c.DropIncrement = 1
	}
	if c.Threshold <= 0 {
		c.Threshold = 16
	}
	if c.Window <= 0 {
		c.Window = 200 * time.Second
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = 10 * c.Timeout
	}
	return c
}

// Stats counts buffer activity.
type Stats struct {
	Expectations  uint64 // watch entries created
	Matches       uint64 // entries cleared by a correct forward
	Drops         uint64 // entries that expired (drop accusations)
	FilteredDrops uint64 // expired entries suppressed by the DropFilter
	Fabrications  uint64 // fabrication accusations
	PeakEntries   int    // high-water mark of concurrent entries
	ThresholdHits uint64 // nodes whose MalC crossed C_t
}

// pendingEntry is one outstanding watch deadline, keyed by the watched
// forwarder's dense index plus the packet identity. Entries are pooled on
// the buffer's freelist and dispatch through fn, a method value bound once
// per allocated entry — re-arming a recycled entry schedules no new
// closure. The timer rides the kernel's lane for tau: every deadline is
// now+Timeout, so a FIFO holds them in firing order, and a forward that
// clears the entry cancels it there.
type pendingEntry struct {
	b     *Buffer
	fidx  int32
	key   packet.Key
	timer sim.Timer
	fn    sim.Event // prebound (*pendingEntry).expire
}

type malcRecord struct {
	times  []time.Duration // timestamps of increments
	incs   []int           // increment values, parallel to times
	latest time.Duration   // time of the newest increment
	fired  bool
}

// Buffer is one guard's monitoring state.
type Buffer struct {
	kernel sim.Clock
	cfg    Config
	idx    *neighbor.Index
	store  storeBackend
	// lane is the clock's fixed-delay lane for Timeout, on which every
	// watch deadline is armed.
	lane *sim.Lane

	// cacheSlot arms the expiry wheel for the two CacheTTL caches (heard,
	// heardAny); malcSlot arms it for Window pruning.
	cacheSlot sim.WheelSlot
	malcSlot  sim.WheelSlot
	// freePending recycles fired/satisfied watch entries. It is capped at
	// freePendingCap: the freelist only needs to cover the steady-state
	// churn between bursts, and an uncapped list would permanently retain
	// the high-water mark of every traffic spike on all 10k guards at once.
	freePending []*pendingEntry

	onAccuse    func(Accusation)
	onThreshold func(field.NodeID)
	stats       Stats

	lastInterference time.Duration
	sawInterference  bool
}

// New returns a buffer. onAccuse (may be nil) observes every accusation;
// onThreshold (may be nil) fires once per accused node when its windowed
// MalC reaches the threshold.
func New(k sim.Clock, cfg Config, onAccuse func(Accusation), onThreshold func(field.NodeID)) *Buffer {
	return newWithStore(k, cfg, newFlatStore(), onAccuse, onThreshold)
}

// newWithStore is New over the given storage; the tests use it to run a
// buffer on the map oracle.
func newWithStore(k sim.Clock, cfg Config, store storeBackend, onAccuse func(Accusation), onThreshold func(field.NodeID)) *Buffer {
	b := &Buffer{
		kernel:      k,
		cfg:         cfg.withDefaults(),
		store:       store,
		onAccuse:    onAccuse,
		onThreshold: onThreshold,
	}
	b.idx = b.cfg.Index
	if b.idx == nil {
		b.idx = neighbor.NewIndex()
	}
	b.lane = k.Lane(b.cfg.Timeout)
	wheel := b.cfg.Wheel
	if wheel == nil {
		wheel = sim.NewWheel(k, 0)
	}
	b.cacheSlot = wheel.Register(b.sweepCaches)
	b.malcSlot = wheel.Register(b.sweepMalc)
	return b
}

// sweepCaches reaps expired heard/heardAny records. Sweeps are
// pure housekeeping: every reader rechecks the stored expiry via live(), so
// when a record is deleted relative to its expiry is unobservable.
func (b *Buffer) sweepCaches(now time.Duration) int {
	return b.store.sweepCaches(now)
}

// sweepMalc drops MalC records whose newest observation fell out of the
// window without ever firing the threshold — their windowed value is zero,
// indistinguishable from having no record at all. Fired records persist:
// ThresholdFired is a latch. Strictly past-window only: windowedValue still
// counts an observation at exactly now-Window, so deleting at the boundary
// would be observable.
func (b *Buffer) sweepMalc(now time.Duration) int {
	return b.store.sweepMalc(now, b.cfg.Window)
}

// Config returns the effective configuration.
func (b *Buffer) Config() Config { return b.cfg }

// Stats returns a copy of the counters.
func (b *Buffer) Stats() Stats { return b.stats }

// Len returns the number of outstanding watch entries.
func (b *Buffer) Len() int { return b.store.pendingLen() }

// Index returns the dense neighbor index the buffer keys its state by.
func (b *Buffer) Index() *neighbor.Index { return b.idx }

// Intern returns id's dense index, assigning one on first sight. Callers
// holding a packet from a sender they will both record and expect against
// intern once and use the *Idx methods.
func (b *Buffer) Intern(id field.NodeID) int32 { return b.idx.Intern(id) }

// EntryBytes is the paper's per-entry storage cost (§5.2): 4 bytes each for
// the immediate source, the immediate destination and the original source,
// plus 8 bytes of sequence number.
const EntryBytes = 20

// MemoryBytes returns the current watch-buffer footprint per the paper's
// cost model.
func (b *Buffer) MemoryBytes() int { return b.store.pendingLen() * EntryBytes }

// RecordHeard notes that this guard overheard sender transmitting the
// packet identified by key. The record expires after CacheTTL; reclamation
// rides the shared expiry wheel instead of a per-record timer.
//
// A transmission of the packet by sender is also the forward that a
// pending expectation on (sender, key) waits for: RecordHeard clears it
// and reports whether one was satisfied. The record then keeps later
// flood copies from re-arming the expectation (see Expect).
func (b *Buffer) RecordHeard(sender field.NodeID, key packet.Key) bool {
	return b.RecordHeardIdx(b.idx.Intern(sender), key)
}

// RecordHeardIdx is RecordHeard for a pre-interned sender.
func (b *Buffer) RecordHeardIdx(sidx int32, key packet.Key) bool {
	expiry := b.kernel.Now() + b.cfg.CacheTTL
	b.store.recordHeard(sidx, key, expiry)
	b.cacheSlot.Arm(expiry)
	entry, ok := b.store.pendingGet(sidx, key)
	if !ok {
		return false
	}
	entry.timer.Cancel()
	b.store.pendingDelete(sidx, key)
	b.recyclePending(entry)
	b.stats.Matches++
	return true
}

// Heard reports whether the guard recently overheard sender transmitting
// the packet identified by key. A sender that was never interned was never
// recorded.
func (b *Buffer) Heard(sender field.NodeID, key packet.Key) bool {
	sidx, ok := b.idx.Lookup(sender)
	return ok && b.store.heard(sidx, key, b.kernel.Now())
}

// HeardIdx is Heard for a pre-interned sender.
func (b *Buffer) HeardIdx(sidx int32, key packet.Key) bool {
	return b.store.heard(sidx, key, b.kernel.Now())
}

// HeardAny reports whether the guard recently overheard *anyone* transmit
// the packet identified by key. A forwarded packet whose key was never on
// the air in the guard's neighborhood can only have entered through a
// wormhole — this is the noise-robust fabrication test: a single missed
// reception (collision) rarely hides every copy of a flooded packet,
// whereas a tunnel endpoint re-injects a packet that was never transmitted
// nearby at all.
func (b *Buffer) HeardAny(key packet.Key) bool {
	return b.store.heardAny(key, b.kernel.Now())
}

// Expect records that forwarder is expected to forward the packet within
// Timeout. It is a no-op (returning false) when an identical expectation is
// already pending or the forwarder was recently heard transmitting this
// packet (flooded packets are forwarded only once). If the deadline passes
// without a RecordHeard of the forward, a drop accusation is raised.
func (b *Buffer) Expect(forwarder field.NodeID, key packet.Key) bool {
	return b.ExpectIdx(b.idx.Intern(forwarder), key)
}

// ExpectIdx is Expect for a pre-interned forwarder.
func (b *Buffer) ExpectIdx(fidx int32, key packet.Key) bool {
	// The heard check goes first: the frame that prompted this call has
	// just resolved key's heard record, so it costs a short sender scan
	// where the pending check costs a table probe.
	if b.store.heard(fidx, key, b.kernel.Now()) {
		return false
	}
	if _, dup := b.store.pendingGet(fidx, key); dup {
		return false
	}
	entry := b.newPending(fidx, key)
	entry.timer = b.kernel.AfterLane(b.lane, entry.fn)
	b.store.pendingPut(fidx, key, entry)
	b.stats.Expectations++
	if n := b.store.pendingLen(); n > b.stats.PeakEntries {
		b.stats.PeakEntries = n
	}
	return true
}

// newPending takes an entry from the freelist (or allocates one, binding
// its dispatch method value exactly once) and keys it to (fidx, key).
func (b *Buffer) newPending(fidx int32, key packet.Key) *pendingEntry {
	var e *pendingEntry
	if n := len(b.freePending); n > 0 {
		e = b.freePending[n-1]
		b.freePending[n-1] = nil
		b.freePending = b.freePending[:n-1]
	} else {
		e = &pendingEntry{b: b}
		e.fn = e.expire
	}
	e.fidx = fidx
	e.key = key
	return e
}

// freePendingCap bounds the per-buffer pendingEntry freelist; entries
// released beyond it go to the garbage collector instead.
const freePendingCap = 256

func (b *Buffer) recyclePending(e *pendingEntry) {
	if len(b.freePending) >= freePendingCap {
		return
	}
	e.timer = sim.Timer{}
	b.freePending = append(b.freePending, e)
}

// expire is the watch deadline firing: the monitored node failed to forward
// within tau. The identity check guards against a stale timer whose entry
// was satisfied and re-armed for the same key in the meantime.
func (e *pendingEntry) expire() {
	b := e.b
	if cur, ok := b.store.pendingGet(e.fidx, e.key); !ok || cur != e {
		return
	}
	b.store.pendingDelete(e.fidx, e.key)
	forwarder, key := b.idx.ID(e.fidx), e.key
	fidx := e.fidx
	b.recyclePending(e)
	if b.cfg.DropFilter != nil && b.cfg.DropFilter(forwarder, key) {
		b.stats.FilteredDrops++
		return
	}
	b.stats.Drops++
	b.accuse(fidx, forwarder, ReasonDrop, key, b.cfg.DropIncrement)
}

// AccuseFabrication raises a fabrication accusation against the node.
func (b *Buffer) AccuseFabrication(accused field.NodeID, key packet.Key) {
	b.stats.Fabrications++
	b.accuse(b.idx.Intern(accused), accused, ReasonFabrication, key, b.cfg.FabricationIncrement)
}

// accuse applies one observation to the accused's MalC record. The record
// pointer returned by ensureMalc may point into dense backing storage, so
// all record mutation — including the threshold latch — happens before the
// callbacks run: a callback can re-enter the buffer (the engine's response
// transmits, which records the host's own send) and grow the storage
// underneath a held pointer.
func (b *Buffer) accuse(aidx int32, accused field.NodeID, reason Reason, key packet.Key, inc int) {
	rec := b.store.ensureMalc(aidx)
	now := b.kernel.Now()
	rec.times = append(rec.times, now)
	rec.incs = append(rec.incs, inc)
	rec.latest = now
	// +1ns: windowedValue still counts an observation at exactly
	// now-Window, so the record is only reclaimable strictly after
	// latest+Window (sweepMalc checks <, and the wheel rounds up).
	b.malcSlot.Arm(now + b.cfg.Window + 1)
	val := b.windowedValue(rec, now)
	fire := !rec.fired && val >= b.cfg.Threshold
	if fire {
		rec.fired = true
	}
	if b.onAccuse != nil {
		b.onAccuse(Accusation{Accused: accused, Reason: reason, MalC: val, Key: key, At: now})
	}
	if fire {
		b.stats.ThresholdHits++
		if b.onThreshold != nil {
			b.onThreshold(accused)
		}
	}
}

func (b *Buffer) windowedValue(rec *malcRecord, now time.Duration) int {
	cutoff := now - b.cfg.Window
	// Compact expired observations in place.
	keep := 0
	total := 0
	for i, t := range rec.times {
		if t >= cutoff {
			rec.times[keep] = t
			rec.incs[keep] = rec.incs[i]
			total += rec.incs[i]
			keep++
		}
	}
	rec.times = rec.times[:keep]
	rec.incs = rec.incs[:keep]
	return total
}

// NoteInterference records that this guard's radio just reported a
// corrupted reception (CRC failure): frames were on the air that it could
// not decode.
func (b *Buffer) NoteInterference() {
	b.lastInterference = b.kernel.Now()
	b.sawInterference = true
}

// RecentInterference reports whether a corrupted reception occurred within
// the given window before now. Guards treat "I heard nothing" as unreliable
// while this holds.
func (b *Buffer) RecentInterference(window time.Duration) bool {
	return b.sawInterference && b.kernel.Now()-b.lastInterference <= window
}

// MalC returns the node's current windowed malicious counter.
func (b *Buffer) MalC(id field.NodeID) int {
	aidx, ok := b.idx.Lookup(id)
	if !ok {
		return 0
	}
	rec := b.store.malc(aidx)
	if rec == nil {
		return 0
	}
	return b.windowedValue(rec, b.kernel.Now())
}

// ThresholdFired reports whether the node has crossed C_t at this guard.
func (b *Buffer) ThresholdFired(id field.NodeID) bool {
	aidx, ok := b.idx.Lookup(id)
	if !ok {
		return false
	}
	rec := b.store.malc(aidx)
	return rec != nil && rec.fired
}
