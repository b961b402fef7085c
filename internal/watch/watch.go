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
// only a small record per packet it expects forwards of, which lives
// about as long as those expectations (logStore, store_log.go); the store
// alone knows which expectations are outstanding. The tests check it
// against a Go-map oracle that keeps every heard fact per guard. The
// buffer itself keeps its expectations' deadlines in a FIFO in the order
// they were armed, one kernel timer for the oldest one still waiting (see
// deadlineQueue), and its MalC records.
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
	// DropFilter, when non-nil, is consulted as a watch entry expires. A
	// true return suppresses the drop accusation (the entry is still
	// removed and counted under FilteredDrops). The engine uses it to
	// distinguish a crashed neighbor — total silence — from a live one
	// selectively refusing to forward.
	DropFilter func(accused field.NodeID, key packet.Key) bool
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
	return c
}

// cacheTTL is how long a heard fact lives: ten times tau. It only needs to
// outlive the propagation of one flood; that it outlives a deadline is
// what lets the deadline queue keep met entries (see deadlineQueue).
func (c Config) cacheTTL() time.Duration { return 10 * c.Timeout }

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
// reserved when the entry was armed.
type deadline struct {
	at   time.Duration
	seq  uint64
	key  packet.Key
	fidx int32
}

// deadlineQueue is a FIFO of a buffer's watch entries in the order they
// were armed, which is also (at, seq) order. Nothing searches or marks it:
// the store alone knows which expectations are still waiting
// (storeBackend.waiting). An entry whose forward was heard stays queued
// until it reaches the head, and whoever pops the head drops the met
// entries behind it, so the head is waiting whenever the queue is
// non-empty. The buffer's one clock timer is armed for the head, so the
// oldest waiting entry is always the one whose deadline fires next.
//
// A met entry is never taken for a waiting one: that would need its
// (fidx, key) expected again while it is queued. It has left the queue by
// its own deadline, a Timeout after it was armed, since every entry ahead
// of it is popped by its own deadline or earlier; and the forward that met
// it is a heard fact, which refuses a new expectation on the same
// (fidx, key) for cacheTTL, ten Timeouts.
type deadlineQueue struct {
	items []deadline
	head  int // items[head] is the oldest entry
}

// queueSeedCap and queueShrinkFactor set the queue's capacity policy: once
// the backing array exceeds queueShrinkFactor*(entries+queueSeedCap)
// slots, the entries move to a fresh array of entries+queueSeedCap slots,
// so a burst's capacity goes back to the collector instead of staying at
// every guard; an idle guard keeps at most 128 slots (5 KB). Of the seeds
// measured on flood-n400 (4 to 64), 4 allocated 49% more bytes per event
// than 32, through trimming and regrowth, and 64 retained 6% more watch
// bytes than 32.
const (
	queueSeedCap      = 32
	queueShrinkFactor = 4
)

// empty reports whether the queue holds no entry.
func (q *deadlineQueue) empty() bool { return q.head == len(q.items) }

// first returns the head entry; the queue must not be empty.
func (q *deadlineQueue) first() *deadline { return &q.items[q.head] }

// pop removes the head entry. Then it trims the backing array (see
// queueSeedCap) or, once the popped prefix is at least as long as the
// rest, moves the rest to the front.
func (q *deadlineQueue) pop() {
	q.items[q.head] = deadline{}
	q.head++
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

// malcRecord is the MalC record of one accused node.
type malcRecord struct {
	aidx   int32           // the accused node's nbrIdx
	fired  bool            // the threshold latch
	latest time.Duration   // time of the newest increment
	times  []time.Duration // timestamps of increments
	incs   []int           // increment values, parallel to times
}

// Buffer is one guard's monitoring state.
type Buffer struct {
	kernel sim.Clock
	cfg    Config
	idx    *neighbor.Index
	store  storeBackend
	// timer is armed for the oldest waiting deadline whenever there is one;
	// it dispatches to onDeadline, the buffer's prebound expire.
	timer      sim.Timer
	onDeadline sim.Event
	deadlines  deadlineQueue

	// malcs holds the MalC records in first-accused order: a guard accuses
	// few nodes, so a scan finds a record.
	malcs []malcRecord

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
	return b
}

// sweepMalc drops MalC records whose newest observation fell out of the
// window without ever firing the threshold — their windowed value is zero,
// indistinguishable from having no record at all. Fired records persist:
// ThresholdFired is a latch. Strictly past-window only: windowedValue still
// counts an observation at exactly now-Window, so deleting at the boundary
// would be observable. The survivors keep their order. accuse calls it
// before it adds a record, so the records never outnumber the nodes
// accused within a window plus the fired ones.
func (b *Buffer) sweepMalc(now time.Duration) {
	keep := b.malcs[:0]
	for _, rec := range b.malcs {
		if rec.fired || rec.latest+b.cfg.Window >= now {
			keep = append(keep, rec)
		}
	}
	clear(b.malcs[len(keep):])
	b.malcs = keep
}

// malc returns aidx's MalC record, or nil.
func (b *Buffer) malc(aidx int32) *malcRecord {
	for i := range b.malcs {
		if b.malcs[i].aidx == aidx {
			return &b.malcs[i]
		}
	}
	return nil
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
// packet identified by key. The fact lives cacheTTL, on the reception log.
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
	met := b.store.recordHeard(sidx, key, now)
	if !met {
		return false
	}
	b.stats.Matches++
	// The head is waiting, and the store held one expectation on (sidx,
	// key): if the head is on (sidx, key), it is the entry just met.
	if d := b.deadlines.first(); d.fidx == sidx && d.key == key {
		b.timer.Cancel()
		b.popHead()
	}
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

// popHead pops the queue's head, then every met entry behind it, and
// re-arms the timer for the new head, the oldest entry still waiting.
func (b *Buffer) popHead() {
	q := &b.deadlines
	q.pop()
	for !q.empty() && !b.store.waiting(q.first().fidx, q.first().key) {
		q.pop()
	}
	b.armHead()
}

// armHead arms the buffer's timer for the queue's head, the oldest waiting
// deadline, if there is one. The timer fires at the entry's reserved
// (at, seq), so it pops exactly where a timer armed with the entry would
// have: after every event scheduled for that instant before the entry was
// armed, before every one scheduled after.
func (b *Buffer) armHead() {
	if !b.deadlines.empty() {
		d := b.deadlines.first()
		b.timer = b.kernel.AtSeq(d.at, d.seq, b.onDeadline)
	}
}

// expire is a watch deadline firing: the monitored node failed to forward
// within tau. The firing entry is the queue's head. The timer is re-armed
// for the next waiting entry before the accusation, whose callbacks may
// arm new entries.
func (b *Buffer) expire() {
	d := *b.deadlines.first()
	b.store.clearExpect(d.fidx, d.key)
	b.popHead()
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
// pointer points into b.malcs, so all record mutation — including the
// threshold latch — happens before the callbacks run: a callback can
// re-enter the buffer and accuse, which may grow the slice underneath a
// held pointer.
func (b *Buffer) accuse(aidx int32, accused field.NodeID, reason Reason, key packet.Key, inc int) {
	now := b.kernel.Now()
	rec := b.malc(aidx)
	if rec == nil {
		b.sweepMalc(now)
		b.malcs = append(b.malcs, malcRecord{aidx: aidx})
		rec = &b.malcs[len(b.malcs)-1]
	}
	rec.times = append(rec.times, now)
	rec.incs = append(rec.incs, inc)
	rec.latest = now
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
	// Drop expired observations in place.
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
	rec := b.malc(aidx)
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
	rec := b.malc(aidx)
	return rec != nil && rec.fired
}
