package routing

import (
	"fmt"
	"slices"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/flatmap"
	"liteworp/internal/packet"
)

// Floods is a scenario's REQ-suppression table: for every flood, which
// routers have marked it and when. A router marks a flood when it
// originates it or first hears it, and suppresses each copy it hears while
// its newest mark of the flood is younger than seenTTL ("each node
// broadcasts only the first route request").
//
// Nearly every node marks each flood, all within a second of its first
// mark, so the table holds each flood once and gives it one 4-byte slot
// per node, at the node's id − FirstID: the node's newest mark as an
// offset in nanoseconds from the flood's first mark, plus one, so 0 means
// none. A flood's slot array has one slot per node that had joined when
// the flood was first marked, and grows when a later joiner marks it.
//
// A mark more than 2^32 − 2 ns after its flood's first mark opens a newer
// entry for the same (origin, seq), linked to the older one; a node's
// newest mark is in the newest entry along the chain whose slot for it is
// set. That happens only when a rebooted origin reuses a seq.
//
// Floods live in a paged queue (see flatmap.Indexed) in the order they
// were first marked, and each add first pops the leading floods whose
// newest mark is dead, so the table needs no timer. A popped flood's slot
// array is kept for the next flood while the table holds no more spare
// arrays than floods.
//
// A Floods is not safe for concurrent use: one scenario's kernel drives
// every router that shares it.
type Floods struct {
	first field.NodeID
	width int // slots of a new flood: one past the highest slot joined

	floods flatmap.Indexed[flood, [flatmap.ShortPage]flood] // positions start at 1
	spare  flatmap.Spares[[flatmap.ShortPage]flood]
	free   [][]uint32 // slot arrays of popped floods
}

// flood is one entry of a Floods: a flood's identity, its first mark, and
// each node's newest mark.
type flood struct {
	key   flatmap.Key
	at    time.Duration // the first mark
	last  uint32        // the largest slot value set: the newest mark
	prev  uint32        // distance back to the key's older entry; 0: none
	marks []uint32      // by slot: the newest mark as an offset from at, plus one
}

// Key returns the flood's packet identity, for the table's index.
func (e flood) Key() flatmap.Key { return e.key }

// maxMark is the largest slot value: a mark at offset maxMark−1.
const maxMark = 1<<32 - 1

// NewFloods returns an empty table for nodes numbered from first. It
// allocates nothing more until the first mark.
func NewFloods(first field.NodeID) *Floods {
	f := &Floods{first: first, spare: flatmap.Spares[[flatmap.ShortPage]flood]{Max: 1}}
	f.floods.Init(1, &f.spare)
	return f
}

// join registers a router incarnation of node id and returns its slot. A
// new incarnation starts with no marks: join clears the slot in every
// flood held.
func (f *Floods) join(id field.NodeID) int {
	if id < f.first {
		panic(fmt.Sprintf("routing: node %d joins a flood table numbered from %d", id, f.first))
	}
	slot := int(id - f.first)
	f.width = max(f.width, slot+1)
	q := &f.floods
	for pos := q.Head(); pos < q.Next(); pos++ {
		if e := q.At(pos); slot < len(e.marks) {
			e.marks[slot] = 0
		}
	}
	return slot
}

// floodKey packs a packet identity for the table's index.
func floodKey(k packet.Key) flatmap.Key {
	return flatmap.PackKey(uint32(k.Origin), k.Seq, uint8(k.Type))
}

// live reports whether slot's newest mark of k is live at now: made less
// than seenTTL before it.
func (f *Floods) live(k flatmap.Key, slot int, now time.Duration) bool {
	q := &f.floods
	pos, _ := q.Lookup(k)
	for pos != 0 {
		e := q.At(pos)
		if slot < len(e.marks) && e.marks[slot] != 0 {
			return now < e.at+time.Duration(e.marks[slot]-1)+seenTTL
		}
		if e.prev == 0 || pos-uint64(e.prev) < q.Head() {
			return false // the older entries, and their marks, are gone
		}
		pos -= uint64(e.prev)
	}
	return false
}

// add marks k for slot at now, superseding the slot's older marks of k.
func (f *Floods) add(k flatmap.Key, slot int, now time.Duration) {
	q := &f.floods
	for !q.Empty() {
		e := q.Front()
		if now < e.at+time.Duration(e.last-1)+seenTTL {
			break
		}
		f.free = append(f.free, e.marks)
		e.marks = nil // a spare page must not keep the array
		q.Drop()
	}

	pos, islot := q.Lookup(k)
	var e *flood
	if pos != 0 {
		e = q.At(pos)
	}
	if e == nil || now-e.at >= maxMark {
		next, fresh := q.Push()
		fresh.key, fresh.at, fresh.marks = k, now, f.slots()
		if pos != 0 {
			fresh.prev = uint32(next - pos)
		}
		q.Point(k, islot, next)
		e = fresh
	}
	e.set(slot, uint32(now-e.at)+1)
	for len(f.free) > q.Len() {
		f.free[len(f.free)-1] = nil
		f.free = f.free[:len(f.free)-1]
	}
}

// set stores slot's mark, growing the slot array for a late joiner.
func (e *flood) set(slot int, v uint32) {
	if slot >= len(e.marks) {
		n := len(e.marks)
		e.marks = slices.Grow(e.marks, slot+1-n)[:slot+1]
		clear(e.marks[n:])
	}
	e.marks[slot] = v
	e.last = max(e.last, v)
}

// slots returns a cleared slot array for a new flood: a popped flood's if
// one is kept, else a new one.
func (f *Floods) slots() []uint32 {
	if n := len(f.free); n > 0 {
		m := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		if cap(m) >= f.width {
			m = m[:f.width]
			clear(m)
			return m
		}
	}
	return make([]uint32, f.width)
}
