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
// Entries live in a paged queue (see flatmap.Indexed) in the order they
// were opened, 256 to a page, and an entry's id is its position there.
// Each write first pops the entries whose newest fact is older than the
// longest CacheTTL of any guard that joined, so the log holds about one
// CacheTTL of transmissions and needs no timer. Readers apply their own
// CacheTTL to each fact. The queue's index maps a (sender, key) pair to
// its newest entry.
//
// A Log is not safe for concurrent use: one scenario's kernel drives it.
type Log struct {
	k   *sim.Kernel   // batch boundaries
	ttl time.Duration // the longest CacheTTL of the guards that joined

	batch  uint64        // current batch stamp; stamps start at 1
	seen   uint64        // k.Processed() when batch last advanced
	seenAt time.Duration // the instant of the current batch

	entries flatmap.Indexed[entry, [flatmap.LongPage]entry] // by id; ids start at 1

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
	overQ flatmap.Paged[overflowRec, [flatmap.ShortPage]overflowRec]

	// Spare pages: one for the entries, and one deadline page for each
	// guard buffer built on the log (see Buffer.deadlines), shared by all
	// of them. A guard whose deadlines burst past its pages takes the
	// pages other guards have drained. The overflow queue keeps none: on
	// paper-n100 and flood-n400 no receiver was placed past the mask.
	entrySpare    flatmap.Spares[[flatmap.LongPage]entry]
	deadlineSpare flatmap.Spares[[flatmap.ShortPage]deadline]
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

// NewLog returns an empty log over kernel k, whose event count marks the
// batches. It allocates nothing more until the first record.
func NewLog(k *sim.Kernel) *Log {
	l := &Log{k: k, entrySpare: flatmap.Spares[[flatmap.LongPage]entry]{Max: 1}}
	l.entries.Init(1, &l.entrySpare)
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
	if k != l.memoKey || b != l.memoBatch || !l.entries.At(id).open(own, uint32(b)) {
		l.pop(now)
		var slot uint64
		id, slot = l.entries.Lookup(k)
		if id == 0 || !l.entries.At(id).open(own, uint32(b)) {
			id = l.push(k, id, slot)
		}
		l.memoKey, l.memoBatch, l.memoID = k, b, id
	}
	e := l.entries.At(id)
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
		_, r := l.overQ.Push()
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
	for id, _ := l.entries.Lookup(k); id != 0; {
		e := l.entries.At(id)
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
		if e.prev == 0 || id-uint64(e.prev) < l.entries.Head() {
			return 0, false
		}
		id -= uint64(e.prev)
	}
	return 0, false
}

// push opens a new entry for pair k, linked to its older entry prev (0:
// none), and points the pair's index slot, slot (see Lookup), at it.
func (l *Log) push(k flatmap.Key, prev, slot uint64) uint64 {
	id, e := l.entries.Push()
	e.key = k
	if prev != 0 {
		e.prev = uint32(id - prev)
	}
	l.entries.Point(k, slot, id)
	return id
}

// pop drops the entries at the head whose newest fact is dead at now
// under the log's ttl, with their index slots and overflow receptions.
func (l *Log) pop(now time.Duration) {
	q := &l.entries
	for !q.Empty() && !live(max(q.Front().at, q.Front().ownAt)+l.ttl, now) {
		q.Drop()
	}
	h := l.overQ.Head()
	for !l.overQ.Empty() && l.overQ.Front().id < q.Head() {
		r := l.overQ.Front()
		l.over.Delete(flatmap.Key{Hi: r.id, Lo: uint64(r.rx)<<1 | 1})
		l.overQ.Pop()
	}
	if l.overQ.Head() != h {
		l.over.Shrink()
	}
}

// Key returns the entry's pair, for the log's index.
func (e entry) Key() flatmap.Key { return e.key }
