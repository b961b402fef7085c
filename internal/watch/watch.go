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
// neighbor index (nbrIdx, see neighbor.Index). Heard facts live in the
// scenario's reception log (Log, log.go), which every guard shares and
// which stores each transmission once, with the set of guards that
// recorded it; a guard's queries answer only from what it recorded in its
// current incarnation. Each guard keeps, behind the storeBackend seam,
// only its own state: a small record per packet it expects forwards of,
// which lives about as long as those expectations, and its MalC records
// (logStore, store_log.go). The tests check it against a Go-map oracle
// that keeps every heard fact per guard. The buffer itself keeps its
// expectations' deadlines, in the order they were armed, and one kernel
// timer for the oldest live one (see deadlineQueue).
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
	// housekeeping TTLs (the guard's records, MalC window pruning) ride
	// instead of per-record kernel timers. Nil means the buffer builds a
	// private wheel over its own clock. The watch deadline tau is semantic
	// — a drop accusation must fire at exactly Timeout — and keeps an
	// exact timer: the buffer's one clock timer, armed for its oldest live
	// deadline at the sequence number reserved when that was armed.
	Wheel *sim.Wheel
	// Index, when non-nil, is the node incarnation's shared dense
	// neighbor index (neighbor.Table.Index()). Nil means the buffer
	// builds a private index — correct, but then nbrIdx values are not
	// shared with the routing layer or scoreboard.
	Index *neighbor.Index
	// Log, when non-nil, is the scenario's reception log, which the
	// guards share. Nil means the buffer keeps a log of its own.
	Log *Log
	// Self is the guard's own node ID: its name on the log, and the
	// sender whose transmissions are its own sends. Guards sharing a log
	// must have distinct IDs; a reboot keeps its node's.
	Self field.NodeID
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

// deadline is one watch entry: forwarder fidx must forward the packet
// key before (at, seq), the kernel instant and the sequence number
// reserved when the entry was armed. fidx is -1 once a heard forward has
// cancelled it.
type deadline struct {
	at   time.Duration
	seq  uint64
	key  packet.Key
	fidx int32
}

// deadlineQueue holds a buffer's watch entries, live and cancelled, in the
// order they were armed, which is also (at, seq) order. An entry's ref is
// its position counted from the head's ref, base, so it stays valid while
// the queue pops or reallocates; compact, which closes the gaps cancelled
// entries leave, gives the live entries behind a gap new refs and writes
// them through the store. The head entry is live whenever the queue is
// non-empty: whoever cancels or pops the head drops the cancelled entries
// behind it. The buffer's one clock timer is armed for the head, so the
// oldest live entry is always the one whose deadline fires next.
type deadlineQueue struct {
	items     []deadline
	head      int    // items[head] is the oldest entry
	base      uint64 // ref of items[head]
	cancelled int    // entries with fidx -1
}

// queueSeedCap and queueShrinkFactor set the queue's capacity policy: once
// the backing array exceeds queueShrinkFactor*(entries+queueSeedCap)
// slots, the entries move to a fresh array of entries+queueSeedCap slots,
// so a burst's capacity goes back to the collector instead of staying at
// every guard; an idle guard keeps at most 128 slots (5 KB). A queue no
// longer than queueSeedCap also keeps its cancelled entries until they
// reach the head (see compact). Of the seeds measured on flood-n400 (4 to
// 64), 4 allocated 49% more bytes per event than 32, through trimming and
// regrowth, and 64 retained 6% more watch bytes than 32.
const (
	queueSeedCap      = 32
	queueShrinkFactor = 4
)

// next returns the ref the next armed entry gets.
func (q *deadlineQueue) next() uint64 { return q.base + uint64(len(q.items)-q.head) }

// empty reports whether the queue holds no entry, so no live one.
func (q *deadlineQueue) empty() bool { return q.head == len(q.items) }

func (q *deadlineQueue) at(ref uint64) *deadline { return &q.items[q.head+int(ref-q.base)] }

// dropCancelled pops the cancelled entries at the head.
func (q *deadlineQueue) dropCancelled() {
	for q.head < len(q.items) && q.items[q.head].fidx < 0 {
		q.pop()
	}
}

// find returns the ref of the live entry on (fidx, key), searching from
// the entry whose ref has low bits from: where the packet's first
// outstanding expectation was armed (compaction keeps the store's copy of
// that ref current). A packet's expectations are armed together, so the
// entry is usually a few steps on; the scan wraps around to the head, so
// find answers wherever the entry is.
func (q *deadlineQueue) find(fidx int32, key packet.Key, from uint32) (uint64, bool) {
	items := q.items[q.head:]
	lo := int(from - uint32(q.base))
	if lo >= len(items) || lo < 0 {
		lo = 0
	}
	for i := lo; i < len(items); i++ {
		if d := &items[i]; d.fidx == fidx && d.key == key {
			return q.base + uint64(i), true
		}
	}
	for i := 0; i < lo; i++ {
		if d := &items[i]; d.fidx == fidx && d.key == key {
			return q.base + uint64(i), true
		}
	}
	return 0, false
}

// cancel marks entry ref met by its forward.
func (q *deadlineQueue) cancel(ref uint64) {
	q.at(ref).fidx = -1
	q.cancelled++
}

// compact drops every cancelled entry once they outnumber the live ones
// in a queue longer than queueSeedCap. The buffer calls it after each
// cancel, so the queue never holds more than 2*live+queueSeedCap entries
// (a pop removes a live entry and at least one slot, which keeps that
// bound); otherwise one live entry would keep every entry armed after it
// queued, cancelled or not. The live entries keep their order and their
// reserved (at, seq), so the head, whose ref stays base, is still the one
// the buffer's timer is armed for; each entry that moves takes the ref of
// its new position, and s.moved learns the new ref of each entry that
// moved and starts a run of one packet's entries.
func (q *deadlineQueue) compact(s storeBackend) {
	n := len(q.items) - q.head
	live := n - q.cancelled
	if n <= queueSeedCap || q.cancelled <= live {
		return
	}
	items := q.items[:0]
	if cap(q.items) > queueShrinkFactor*(live+queueSeedCap) {
		items = make([]deadline, 0, live+queueSeedCap)
	}
	for i, d := range q.items[q.head:] {
		if d.fidx < 0 {
			continue
		}
		if j := len(items); j != i && (j == 0 || items[j-1].key != d.key) {
			s.moved(d.key, q.base+uint64(j))
		}
		items = append(items, d)
	}
	clear(q.items[len(items):])
	q.items, q.head, q.cancelled = items, 0, 0
}

// pop removes the oldest entry. Then it trims the backing array (see
// queueSeedCap) or, once the popped prefix is at least as long as the
// rest, moves the rest to the front.
func (q *deadlineQueue) pop() {
	if q.items[q.head].fidx < 0 {
		q.cancelled--
	}
	q.items[q.head] = deadline{}
	q.head++
	q.base++
	switch n := len(q.items) - q.head; {
	case cap(q.items) > queueShrinkFactor*(n+queueSeedCap):
		items := make([]deadline, n, n+queueSeedCap)
		copy(items, q.items[q.head:])
		q.items, q.head = items, 0
	case q.head >= n:
		m := copy(q.items, q.items[q.head:])
		clear(q.items[m:])
		q.items, q.head = q.items[:m], 0
	}
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
	// timer is armed for the oldest live deadline whenever there is one;
	// it dispatches to onDeadline, the buffer's prebound expire.
	timer      sim.Timer
	onDeadline sim.Event
	deadlines  deadlineQueue

	// cacheSlot arms the expiry wheel for the sweep of the store's
	// records, at the CacheTTL expiry of each transmission the guard
	// records; malcSlot arms it for Window pruning.
	cacheSlot sim.WheelSlot
	malcSlot  sim.WheelSlot

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
	return newWithStore(k, cfg, func(b *Buffer) storeBackend { return newLogStore(b) }, onAccuse, onThreshold)
}

// wrapStore, when non-nil, wraps each new buffer's store. Only tests set
// it, to hold every buffer of a whole scenario to the map oracle.
var wrapStore func(*Buffer, storeBackend) storeBackend

// newWithStore is New over the storage store builds for the buffer; the
// tests use it to run a buffer on the map oracle.
func newWithStore(k sim.Clock, cfg Config, store func(*Buffer) storeBackend, onAccuse func(Accusation), onThreshold func(field.NodeID)) *Buffer {
	b := &Buffer{
		kernel:      k,
		cfg:         cfg.withDefaults(),
		onAccuse:    onAccuse,
		onThreshold: onThreshold,
	}
	b.idx = b.cfg.Index
	if b.idx == nil {
		b.idx = neighbor.NewIndex()
	}
	b.store = store(b)
	if wrapStore != nil {
		b.store = wrapStore(b, b.store)
	}
	b.onDeadline = b.expire
	wheel := b.cfg.Wheel
	if wheel == nil {
		wheel = sim.NewWheel(k, 0)
	}
	b.cacheSlot = wheel.Register(b.store.sweepCaches)
	b.malcSlot = wheel.Register(b.sweepMalc)
	return b
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

// Len returns the number of outstanding watch entries: those armed and
// neither matched nor expired.
func (b *Buffer) Len() int {
	st := b.stats
	return int(st.Expectations - st.Matches - st.Drops - st.FilteredDrops)
}

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
func (b *Buffer) MemoryBytes() int { return b.Len() * EntryBytes }

// RecordHeard notes that this guard overheard sender transmitting the
// packet identified by key. The fact lives CacheTTL, on the reception log.
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
	now := b.kernel.Now()
	ref, met := b.store.recordHeard(sidx, key, now)
	b.cacheSlot.Arm(now + b.cfg.CacheTTL)
	if !met {
		return false
	}
	b.deadlines.cancel(ref)
	b.stats.Matches++
	if ref == b.deadlines.base {
		b.timer.Cancel()
		b.deadlines.dropCancelled()
		b.armHead()
	}
	b.deadlines.compact(b.store)
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

// ExpectIdx is Expect for a pre-interned forwarder. Most calls are no-ops
// on a forwarder already expected or heard; Settled answers most of those
// without asking the reception log. An armed expectation reserves the
// kernel sequence number a timer armed now would get; the buffer's timer
// is armed for it only if the entry is the queue's only one.
func (b *Buffer) ExpectIdx(fidx int32, key packet.Key) bool {
	now := b.kernel.Now()
	if b.store.settled(fidx, key, now) || !b.store.expect(fidx, key, now) {
		return false
	}
	idle := b.deadlines.empty()
	b.deadlines.items = append(b.deadlines.items, deadline{at: now + b.cfg.Timeout, seq: b.kernel.Reserve(), key: key, fidx: fidx})
	if idle {
		b.armHead()
	}
	b.stats.Expectations++
	if n := b.Len(); n > b.stats.PeakEntries {
		b.stats.PeakEntries = n
	}
	return true
}

// Settled reports whether ExpectIdx(fidx, key) is known to be a no-op
// now: fidx is already expected to forward key, or was heard sending it.
// It reads one packet record and changes nothing. False means only that
// the answer needs ExpectIdx's full check.
func (b *Buffer) Settled(fidx int32, key packet.Key) bool {
	return b.store.settled(fidx, key, b.kernel.Now())
}

// armHead arms the buffer's timer for the queue's head, the oldest live
// deadline, if there is one. The timer fires at the entry's reserved
// (at, seq), so it pops exactly where a timer armed with the entry would
// have: after every event scheduled for that instant before the entry was
// armed, before every one scheduled after.
func (b *Buffer) armHead() {
	if !b.deadlines.empty() {
		d := &b.deadlines.items[b.deadlines.head]
		b.timer = b.kernel.AtSeq(d.at, d.seq, b.onDeadline)
	}
}

// expire is a watch deadline firing: the monitored node failed to forward
// within tau. The firing entry is the queue's head. The timer is re-armed
// for the next live entry before the accusation, whose callbacks may arm
// new entries.
func (b *Buffer) expire() {
	d := b.deadlines.items[b.deadlines.head]
	b.deadlines.pop()
	b.deadlines.dropCancelled()
	b.armHead()
	b.store.clearExpect(d.fidx, d.key)
	forwarder := b.idx.ID(d.fidx)
	if b.cfg.DropFilter != nil && b.cfg.DropFilter(forwarder, d.key) {
		b.stats.FilteredDrops++
		return
	}
	b.stats.Drops++
	b.accuse(d.fidx, forwarder, ReasonDrop, d.key, b.cfg.DropIncrement)
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
