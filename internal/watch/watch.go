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
// alone knows which expectations are outstanding. One read of that record
// (SettledSet) names every forwarder already expected or heard, so the
// detector asks once per overheard copy, not once per neighbor, and
// ExpectIdx decides the rest. Callers that resolved a node already pass
// its nbrIdx (RecordHeardIdx, HeardIdx, ExpectIdx). The tests check it
// against a Go-map oracle that keeps every heard fact per guard. The
// buffer itself keeps its expectations' deadlines in a queue in the order
// they were armed, one kernel timer for the oldest one still waiting (see
// deadline), and its MalC records, one 8-byte word per observation (see
// malcRecord).
//
// The log's entries and overflow receptions and each guard's deadlines
// and records live in one container, flatmap.Paged: a FIFO of
// fixed-length pages addressed by position, which gives the pages it
// empties or trims to a pool of spares and takes pages from there before
// it allocates. The log's entries sit 256 to a page, in a flatmap.Indexed
// queue whose index finds a pair's newest entry, and an entry's id is its
// position; the rest sit 8 to a page. The guards on one log pool their
// spare deadline pages, one page per guard. A guard queues at most twice
// as many deadlines as are waiting, plus a page (see dropMet); its pages
// hold those and the unused ends of their first and last pages, and the
// pool at most one page per guard, whatever burst any guard saw.
package watch

import (
	"time"

	"liteworp/internal/field"
	"liteworp/internal/flatmap"
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

// Config parameterizes the buffer. Every field is required: the values
// come from the scenario's Params, which Params.Validate checks, and the
// dependencies are built once by the scenario and the node.
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
	// DropFilter is consulted as a watch entry expires. A true return
	// suppresses the drop accusation (the entry is still removed and
	// counted under FilteredDrops). The engine uses it to distinguish a
	// crashed neighbor — total silence — from a live one selectively
	// refusing to forward.
	DropFilter func(accused field.NodeID, key packet.Key) bool
	// Index is the node incarnation's dense neighbor index
	// (neighbor.Table.Index()), which the routing layer shares.
	Index *neighbor.Index
	// Log is the scenario's reception log, which the guards share.
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

// cacheTTL is how long a heard fact lives: ten times tau. It only needs to
// outlive the propagation of one flood; that it outlives a deadline is
// what lets a met entry stay queued until the queue drops it (see
// deadline).
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
//
// A buffer queues its deadlines in the order they were armed, which is
// also (at, seq) order. Nothing searches or marks the queue: the store
// alone knows which expectations are still waiting
// (storeBackend.waiting). An entry whose forward was heard stays queued
// until it reaches the head or the queue is filtered (dropMet), and
// whoever pops the head drops the met entries behind it, so the head is
// waiting whenever the queue is non-empty. The buffer's one clock timer is
// armed for the head, so the oldest waiting entry is always the one whose
// deadline fires next.
//
// A met entry is never taken for a waiting one: that would need its
// (fidx, key) expected again while it is queued. It has left the queue by
// its own deadline, a Timeout after it was armed, since every entry ahead
// of it is popped by its own deadline or earlier; and the forward that met
// it is a heard fact, which refuses a new expectation on the same
// (fidx, key) for cacheTTL, ten Timeouts.
type deadline struct {
	at   time.Duration
	seq  uint64
	key  packet.Key
	fidx int32
}

// malcRecord is the MalC record of one accused node: 32 bytes and one
// 8-byte word per observation still in the window.
//
// An observation at instant at is stored as 2*at, plus 1 for a
// fabrication. Its increment is then FabricationIncrement or
// DropIncrement, the only two there are, and the newest observation is
// the last one.
type malcRecord struct {
	aidx  int32           // the accused node's nbrIdx
	fired bool            // the threshold latch
	obs   []time.Duration // observations in the order made (see above)
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
	deadlines  flatmap.Paged[deadline, [flatmap.ShortPage]deadline]

	// malcs holds the MalC records in first-accused order: a guard accuses
	// few nodes, so a scan finds a record.
	malcs []malcRecord

	onAccuse    func(Accusation)
	onThreshold func(field.NodeID)
	stats       Stats

	lastInterference time.Duration
	sawInterference  bool
}

// New returns a buffer. onAccuse observes every accusation; onThreshold
// fires once per accused node when its windowed MalC reaches the
// threshold. Both are required.
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
		cfg:         cfg,
		idx:         cfg.Index,
		onAccuse:    onAccuse,
		onThreshold: onThreshold,
	}
	// The guards on a log pool their spare deadline pages, one each.
	b.deadlines.Init(0, &cfg.Log.deadlineSpare)
	cfg.Log.deadlineSpare.Max++
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
// accused within a window plus the fired ones. A record whose slice
// windowedValue emptied goes too: its newest observation was older still.
func (b *Buffer) sweepMalc(now time.Duration) {
	keep := b.malcs[:0]
	for _, rec := range b.malcs {
		if rec.fired || len(rec.obs) > 0 && rec.obs[len(rec.obs)-1]/2+b.cfg.Window >= now {
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

// Config returns the buffer's configuration.
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
	if d := b.deadlines.Front(); d.fidx == sidx && d.key == key {
		b.timer.Cancel()
		b.popHead()
	}
	b.dropMet()
	return true
}

// HeardIdx reports whether the guard recently overheard the sender
// interned at sidx transmitting the packet identified by key. A sender
// that was never interned was never recorded, so a caller holding no index
// for it knows the answer is false.
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

// ExpectIdx is Expect for a pre-interned forwarder. A caller about to
// expect many forwarders of one packet skips those in SettledSet first. An
// armed expectation reserves the kernel sequence number a timer armed now
// would get; the buffer's timer is armed for it only if the entry is the
// queue's only one.
func (b *Buffer) ExpectIdx(fidx int32, key packet.Key) bool {
	now := b.kernel.Now()
	if !b.store.expect(fidx, key, now) {
		return false
	}
	idle := b.deadlines.Empty()
	_, d := b.deadlines.Push()
	*d = deadline{at: now + b.cfg.Timeout, seq: b.kernel.Reserve(), key: key, fidx: fidx}
	if idle {
		b.armHead()
	}
	b.stats.Expectations++
	if n := b.Len(); n > b.stats.PeakEntries {
		b.stats.PeakEntries = n
	}
	return true
}

// Forwarders is a set of forwarder indices below settledBits, one bit
// each.
type Forwarders uint32

// Has reports whether fidx is in the set. A forwarder at or past the
// masks never is.
func (f Forwarders) Has(fidx int32) bool {
	return uint32(fidx) < settledBits && f&(1<<fidx) != 0
}

// SettledSet returns the forwarders for which ExpectIdx(fidx, key) is
// known to be a no-op now: each is already expected to forward key, or
// was heard sending it. It reads one packet record and changes nothing,
// and an ExpectIdx on one forwarder unsettles no other, so the set holds
// for every forwarder of one overheard copy. A forwarder not in it needs
// ExpectIdx's full check.
func (b *Buffer) SettledSet(key packet.Key) Forwarders {
	return b.store.settled(key, b.kernel.Now())
}

// popHead pops the queue's head, then every met entry behind it, and
// re-arms the timer for the new head, the oldest entry still waiting.
func (b *Buffer) popHead() {
	q := &b.deadlines
	q.Pop()
	for !q.Empty() && !b.store.waiting(q.Front().fidx, q.Front().key) {
		q.Pop()
	}
	b.armHead()
}

// dropMet filters the met entries out of the queue once it holds more
// than twice the waiting ones plus a page, so a guard queues no more than
// that after any call. The waiting entries keep their order and their
// reserved (at, seq); the head is one of them, so the timer stays armed
// for it. A filter drops more entries than it keeps, so it probes fewer
// than twice the entries it drops: at most two probes per entry armed.
// The pages the filter empties go to the spares.
func (b *Buffer) dropMet() {
	q := &b.deadlines
	if q.Len() <= 2*b.Len()+flatmap.ShortPage {
		return
	}
	keep := q.Head()
	for i := q.Head(); i < q.Next(); i++ {
		if d := q.At(i); b.store.waiting(d.fidx, d.key) {
			*q.At(keep) = *d
			keep++
		}
	}
	q.Trim(keep - q.Head())
}

// armHead arms the buffer's timer for the queue's head, the oldest waiting
// deadline, if there is one. The timer fires at the entry's reserved
// (at, seq), so it pops exactly where a timer armed with the entry would
// have: after every event scheduled for that instant before the entry was
// armed, before every one scheduled after.
func (b *Buffer) armHead() {
	if !b.deadlines.Empty() {
		d := b.deadlines.Front()
		b.timer = b.kernel.AtSeq(d.at, d.seq, b.onDeadline)
	}
}

// expire is a watch deadline firing: the monitored node failed to forward
// within tau. The firing entry is the queue's head. The timer is re-armed
// for the next waiting entry, and the queue filtered for the expectation
// resolved, before the accusation, whose callbacks may arm new entries.
func (b *Buffer) expire() {
	d := *b.deadlines.Front()
	b.store.clearExpect(d.fidx, d.key)
	b.popHead()
	forwarder := b.idx.ID(d.fidx)
	if b.cfg.DropFilter(forwarder, d.key) {
		b.stats.FilteredDrops++
		b.dropMet()
		return
	}
	b.stats.Drops++
	b.dropMet()
	b.accuse(d.fidx, forwarder, ReasonDrop, d.key)
}

// AccuseFabrication raises a fabrication accusation against the node.
func (b *Buffer) AccuseFabrication(accused field.NodeID, key packet.Key) {
	b.stats.Fabrications++
	b.accuse(b.idx.Intern(accused), accused, ReasonFabrication, key)
}

// accuse applies one observation to the accused's MalC record. The record
// pointer points into b.malcs, so all record mutation — including the
// threshold latch — happens before the callbacks run: a callback can
// re-enter the buffer and accuse, which may grow the slice underneath a
// held pointer.
func (b *Buffer) accuse(aidx int32, accused field.NodeID, reason Reason, key packet.Key) {
	now := b.kernel.Now()
	rec := b.malc(aidx)
	if rec == nil {
		b.sweepMalc(now)
		b.malcs = append(b.malcs, malcRecord{aidx: aidx})
		rec = &b.malcs[len(b.malcs)-1]
	}
	o := 2 * now
	if reason == ReasonFabrication {
		o++
	}
	rec.obs = append(rec.obs, o)
	val := b.windowedValue(rec, now)
	fire := !rec.fired && val >= b.cfg.Threshold
	if fire {
		rec.fired = true
	}
	b.onAccuse(Accusation{Accused: accused, Reason: reason, MalC: val, Key: key, At: now})
	if fire {
		b.stats.ThresholdHits++
		b.onThreshold(accused)
	}
}

// windowedValue sums the increments of rec's observations at or after
// now-Window, and drops the older ones in place.
func (b *Buffer) windowedValue(rec *malcRecord, now time.Duration) int {
	cutoff := 2 * (now - b.cfg.Window)
	keep := rec.obs[:0]
	total := 0
	for _, o := range rec.obs {
		if o < cutoff {
			continue
		}
		keep = append(keep, o)
		if o&1 != 0 {
			total += b.cfg.FabricationIncrement
		} else {
			total += b.cfg.DropIncrement
		}
	}
	rec.obs = keep
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
