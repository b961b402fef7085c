package watch

import (
	"time"

	"liteworp/internal/field"
	"liteworp/internal/flatmap"
	"liteworp/internal/sim"
)

// Log is a scenario's reception log: the heard facts of every guard in
// one place, stored once per transmission instead of once per guard that
// heard it. A delivery batch hands one frame to each of the sender's
// neighbors in turn, and every guard among them records "s sent k at t";
// here the first such record opens an entry and each later one sets the
// receiver's bit in it.
//
// An entry holds two facts about one (sender, key) pair, each with its
// own instant and batch stamp:
//
//   - a reception: the instant its receivers recorded it, and a mask
//     with one bit per receiver, at the receiver's place in the sender's
//     receiver list (the order in which guards first recorded that
//     sender). Receivers placed past the mask width go to an exact
//     overflow set keyed by entry and receiver.
//   - an own send: the instant the sender itself recorded transmitting
//     the packet (a guard vouches for its own outgoing links).
//
// A fact is attached to the newest entry of its pair while that entry's
// slot for it is empty or was filled in the same batch, and otherwise
// opens a new entry linked to the older ones. Facts recorded in one batch
// share their instant, so merging them is exact. Along a pair's chain,
// each kind of fact gets older from the newest entry back.
//
// Batches and incarnations. A batch is one kernel event at one instant:
// everything a delivery batch records carries the same stamp. A guard
// joins the log as it is built and takes a fresh stamp, its incarnation;
// a fact answers the guard only if its stamp is at or after that
// incarnation. So a reboot and a reception in the same instant, or even
// the same event, order exactly: what the old incarnation recorded is
// invisible to the new one.
//
// Entries live in a paged queue (see paged) in the order they were
// opened, 256 to a page, and an entry's id is its position there. Each
// write first pops the entries whose newest fact is older than the
// longest CacheTTL of any guard that joined, so the log holds about one
// CacheTTL of transmissions and needs no timer. Readers apply their own
// CacheTTL to each fact.
//
// The index maps a (sender, key) pair to its newest entry. It is an
// open-addressed table of 64-bit slots, each the low 32 bits of the pair's
// hash beside the low 32 bits of the entry's id; the key itself is read
// from the entry, and only when the hash bits match, so a probe that
// misses touches nothing but the table. That keeps long probe runs cheap,
// so the table grows only at 7/8 load. Entry ids whose low 32 bits are
// zero are skipped, which leaves 0 free to mark an empty slot.
//
// A Log is not safe for concurrent use: one scenario's kernel drives it.
type Log struct {
	k   *sim.Kernel   // batch boundaries
	ttl time.Duration // the longest CacheTTL of the guards that joined

	batch  uint64        // current batch stamp; stamps start at 1
	seen   uint64        // k.Processed() when batch last advanced
	seenAt time.Duration // the instant of the current batch

	entries paged[entry, [logPageSize]entry] // by id; ids start at 1

	slots []uint64 // index: hash tag and entry id (see slotOf), 0 for empty
	n     int      // occupied slots

	// The memo is the entry the last write used: every receiver of one
	// delivery batch after the first finds its entry here.
	memoKey   flatmap.Key
	memoBatch uint64
	memoID    uint64

	// receivers lists, per sender, the receivers in the order they first
	// recorded it; a receiver's place is its bit in the sender's masks.
	receivers map[field.NodeID][]field.NodeID

	// over holds the receptions of receivers placed at or past maskBits,
	// keyed by entry id and receiver. overQ lists them in the order they
	// were recorded; pop drops the leading ones whose entry has gone.
	over  flatmap.Table[struct{}]
	overQ paged[overflowRec, [pageSize]overflowRec]

	// Spare pages: one for the entries, and one deadline page for each
	// guard buffer built on the log (see Buffer.deadlines), shared by all
	// of them. A guard whose deadlines burst past its pages takes the
	// pages other guards have drained. The overflow queue keeps none: on
	// paper-n100 and flood-n400 no receiver was placed past the mask.
	entrySpare    spares[[logPageSize]entry]
	deadlineSpare spares[[pageSize]deadline]
}

// entry is one transmission's heard facts (see Log). A fact whose batch
// is 0 is absent. Batches are stored as their low 32 bits: an entry lives
// one CacheTTL, far fewer batches than 2^32.
type entry struct {
	key      flatmap.Key   // sender and packet identity (see pairKey)
	at       time.Duration // instant of the reception
	ownAt    time.Duration // instant of the own send
	rx       uint32        // receivers by their place (maskBits of them)
	batch    uint32        // batch of the reception
	ownBatch uint32        // batch of the own send
	prev     uint32        // distance back to the pair's older entry; 0: none
}

// maskBits is the width of an entry's receiver mask. A sender's receiver
// list is its radio neighborhood plus any node that overhears it through
// a relay or a high-power send; the benchmark workloads average 9 to 12
// neighbors.
const maskBits = 32

type overflowRec struct {
	id uint64
	rx field.NodeID
}

// logMinSlots is the index's smallest table.
const logMinSlots = 64

// NewLog returns an empty log over kernel k, whose event count marks the
// batches. It allocates nothing more until the first record.
func NewLog(k *sim.Kernel) *Log {
	l := &Log{k: k, entrySpare: spares[[logPageSize]entry]{max: 1}}
	l.entries = paged[entry, [logPageSize]entry]{head: 1, next: 1, spares: &l.entrySpare}
	return l
}

// join registers a guard incarnation that reads with the given CacheTTL,
// and returns its incarnation stamp.
func (l *Log) join(ttl time.Duration) uint64 {
	l.ttl = max(l.ttl, ttl)
	l.advance()
	return l.batch
}

// stamp returns the batch of a record at now, advancing it at each new
// kernel event and at each new instant: a clock moved on between events
// (RunFor past the last event) must not merge two instants.
func (l *Log) stamp(now time.Duration) uint64 {
	if p := l.k.Processed(); p != l.seen || now != l.seenAt {
		l.seen, l.seenAt = p, now
		l.advance()
	}
	return l.batch
}

// advance moves to the next batch, skipping stamps whose low 32 bits are
// zero: a stored 0 marks an absent fact.
func (l *Log) advance() {
	l.batch++
	if uint32(l.batch) == 0 {
		l.batch++
	}
}

// full returns the stamp whose low 32 bits are b: the latest one not past
// the current batch.
func (l *Log) full(b uint32) uint64 { return l.batch - uint64(uint32(l.batch)-b) }

// pairKey packs a sender and a packet identity: the packet's own packed
// key with the sender in the upper half of Hi.
func pairKey(sender field.NodeID, k flatmap.Key) flatmap.Key {
	k.Hi |= uint64(sender) << 32
	return k
}

// place returns rx's place in sender's receiver list, adding it at the end
// when add is set; ok is false when rx is not on the list.
func (l *Log) place(sender, rx field.NodeID, add bool) (int, bool) {
	list := l.receivers[sender]
	for i, r := range list {
		if r == rx {
			return i, true
		}
	}
	if !add {
		return 0, false
	}
	if l.receivers == nil {
		l.receivers = make(map[field.NodeID][]field.NodeID)
	}
	l.receivers[sender] = append(list, rx)
	return len(list), true
}

// record notes a fact about pair k at now: rx's reception at place pos,
// or, when own is set, the sender's own send.
func (l *Log) record(k flatmap.Key, own bool, pos int, rx field.NodeID, now time.Duration) {
	b := l.stamp(now)
	id := l.memoID
	if k != l.memoKey || b != l.memoBatch || !l.entries.at(id).open(own, uint32(b)) {
		l.pop(now)
		if len(l.slots) == 0 {
			l.rehash(logMinSlots)
		}
		var slot uint64
		id, slot = l.lookup(k)
		if id == 0 || !l.entries.at(id).open(own, uint32(b)) {
			id = l.push(k, id, slot)
		}
		l.memoKey, l.memoBatch, l.memoID = k, b, id
	}
	e := l.entries.at(id)
	if own {
		e.ownAt, e.ownBatch = now, uint32(b)
		return
	}
	e.at, e.batch = now, uint32(b)
	if pos < maskBits {
		e.rx |= 1 << pos
		return
	}
	ok := flatmap.Key{Hi: id, Lo: uint64(rx)<<1 | 1}
	if _, dup := l.over.Get(ok); !dup {
		l.over.Put(ok, struct{}{})
		_, r := l.overQ.push()
		*r = overflowRec{id, rx}
	}
}

// open reports whether a fact of the given kind recorded in batch b may
// go on e: its slot is empty or was filled in b.
func (e *entry) open(own bool, b uint32) bool {
	if own {
		return e.ownBatch == 0 || e.ownBatch == b
	}
	return e.batch == 0 || e.batch == b
}

// heard returns the newest fact of the given kind about pair k that rx
// recorded at or after batch inc and that is live at now under ttl, as the
// instant it expires. For a reception, pos is rx's place in the sender's
// receiver list.
func (l *Log) heard(k flatmap.Key, own bool, pos int, rx field.NodeID, inc uint64, ttl, now time.Duration) (time.Duration, bool) {
	for id := l.newest(k); id != 0; {
		e := l.entries.at(id)
		at, b := e.at, e.batch
		if own {
			at, b = e.ownAt, e.ownBatch
		}
		if b != 0 {
			if !live(at+ttl, now) || l.full(b) < inc {
				return 0, false // every older fact of this kind is older still
			}
			if own || (pos < maskBits && e.rx&(1<<pos) != 0) {
				return at + ttl, true
			}
			if pos >= maskBits {
				if _, ok := l.over.Get(flatmap.Key{Hi: id, Lo: uint64(rx)<<1 | 1}); ok {
					return at + ttl, true
				}
			}
		}
		if e.prev == 0 || id-uint64(e.prev) < l.entries.head {
			return 0, false
		}
		id -= uint64(e.prev)
	}
	return 0, false
}

// push opens a new entry for pair k, linked to its older entry prev (0:
// none), and points the pair's index slot, slot (see lookup), at it.
func (l *Log) push(k flatmap.Key, prev, slot uint64) uint64 {
	if prev == 0 && l.n >= len(l.slots)-len(l.slots)/8 {
		l.rehash(2 * len(l.slots))
		_, slot = l.lookup(k)
	}
	if uint32(l.entries.next) == 0 {
		l.entries.push() // an unindexed blank: ids with zero low bits are skipped
	}
	id, e := l.entries.push()
	e.key = k
	if prev == 0 {
		l.n++
	} else {
		e.prev = uint32(id - prev)
	}
	l.slots[slot] = slotOf(k.Hash(), id)
	return id
}

// pop drops the entries at the head whose newest fact is dead at now
// under the log's ttl, with their index slots and overflow receptions.
func (l *Log) pop(now time.Duration) {
	q := &l.entries
	for !q.empty() {
		e := q.front()
		if live(max(e.at, e.ownAt)+l.ttl, now) {
			break
		}
		if e.batch != 0 || e.ownBatch != 0 {
			l.unindex(e.key, q.head)
		}
		q.pop()
	}
	h := l.overQ.head
	for !l.overQ.empty() && l.overQ.front().id < q.head {
		r := l.overQ.front()
		l.over.Delete(flatmap.Key{Hi: r.id, Lo: uint64(r.rx)<<1 | 1})
		l.overQ.pop()
	}
	if l.overQ.head != h {
		l.over.Shrink()
	}
	if len(l.slots) > logMinSlots && l.n <= len(l.slots)/8 {
		l.rehash(len(l.slots) / 2)
	}
}

// slotOf packs an index slot: the low 32 bits of the pair's hash h, then
// the low 32 bits of its entry's id.
func slotOf(h, id uint64) uint64 { return h<<32 | id&(1<<32-1) }

// idOf returns the live entry id whose low 32 bits are v.
func (l *Log) idOf(v uint64) uint64 { return l.entries.head + uint64(uint32(v)-uint32(l.entries.head)) }

// lookup returns pair k's newest entry, or 0, and the index slot that
// holds it or would.
func (l *Log) lookup(k flatmap.Key) (id, slot uint64) {
	h := k.Hash()
	tag, mask := uint32(h), uint64(len(l.slots)-1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := l.slots[i]
		if v == 0 {
			return 0, i
		}
		if uint32(v>>32) == tag {
			if id := l.idOf(v); l.entries.at(id).key == k {
				return id, i
			}
		}
	}
}

// newest returns the newest entry of pair k, or 0.
func (l *Log) newest(k flatmap.Key) uint64 {
	if l.n == 0 {
		return 0
	}
	id, _ := l.lookup(k)
	return id
}

// unindex removes pair k's slot if it still names entry id, shifting the
// rest of its probe chain back (see flatmap.Table's deleteAt).
func (l *Log) unindex(k flatmap.Key, id uint64) {
	mask := uint64(len(l.slots) - 1)
	i := k.Hash() & mask
	for uint32(l.slots[i]) != uint32(id) {
		if l.slots[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	l.n--
	for {
		l.slots[i] = 0
		j := i
		for {
			j = (j + 1) & mask
			v := l.slots[j]
			if v == 0 {
				return
			}
			home := v >> 32 & mask
			if (i <= j && i < home && home <= j) || (i > j && (i < home || home <= j)) {
				continue
			}
			l.slots[i] = v
			i = j
			break
		}
	}
}

// rehash moves the index into a table of n slots.
func (l *Log) rehash(n int) {
	old := l.slots
	l.slots = make([]uint64, n)
	mask := uint64(n - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		i := v >> 32 & mask
		for l.slots[i] != 0 {
			i = (i + 1) & mask
		}
		l.slots[i] = v
	}
}
