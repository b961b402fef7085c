// Package neighbor implements LITEWORP's secure two-hop neighbor discovery
// (paper §4.2.1) and the resulting neighbor tables.
//
// After discovery, every node knows (a) its direct neighbors and (b) the
// neighbor list of each direct neighbor. Those two structures power all of
// LITEWORP's checks: guard determination, the second-hop legitimacy check on
// forwarded packets, the rejection of packets from non-neighbors, and the
// local revocation that isolates detected attackers.
package neighbor

import (
	"fmt"
	"sort"

	"liteworp/internal/field"
)

// Status is a neighbor's standing in the table.
type Status uint8

// Neighbor states. A revoked neighbor stays in the table (so guards keep
// their topological knowledge) but no traffic is accepted from or sent to it.
// A stale neighbor has gone silent long enough that it is presumed dead
// (crashed, not malicious): guards stop expecting forwards from it, but its
// entry — and the key material behind it — is kept so the node can resume
// where it left off when it reboots and re-announces itself.
const (
	StatusActive Status = iota + 1
	StatusRevoked
	StatusStale
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusRevoked:
		return "revoked"
	case StatusStale:
		return "stale"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Entry is one direct neighbor's record. The zero Status doubles as the
// "not a direct neighbor" marker in the table's dense entry storage (an
// interned second-hop ID has a slot but no standing).
type Entry struct {
	Status Status
	// Neighbors is the neighbor's own announced neighbor list (the
	// second-hop information), sorted ascending and deduplicated. Nil
	// until the neighbor announces.
	Neighbors []field.NodeID
}

// Table is a node's first- and second-hop neighbor knowledge.
type Table struct {
	self field.NodeID
	// entries is dense by nbrIdx: entry i belongs to the i-th interned ID.
	// It is only grown on AddDirect, so second-hop-only indexes past the
	// last direct neighbor need no storage at all; in-range slots with the
	// zero Status are second-hop placeholders. Addressing by position
	// removes the entry map — and its per-entry pointers — from every
	// hot-path membership check.
	entries []Entry
	idx     *Index

	// Sorted views are rebuilt lazily after a status mutation and shared
	// between calls — the monitor consults Neighbors on every overheard
	// control packet, so re-sorting per call was a hot-path allocation.
	viewsValid  bool
	activeView  []field.NodeID
	activeIdxs  []int32
	trustedView []field.NodeID
	allView     []field.NodeID

	// The second-hop view is cached separately: it additionally depends on
	// announced neighbor sets, so SetNeighborSet invalidates it without
	// touching the membership views.
	secondValid bool
	secondView  []field.NodeID
}

// NewTable returns an empty table for node self, with a fresh dense index
// scoped to the same incarnation.
func NewTable(self field.NodeID) *Table {
	return &Table{self: self, idx: NewIndex()}
}

// entry returns the mutable record of direct neighbor id, nil if id is not
// a direct neighbor.
func (t *Table) entry(id field.NodeID) *Entry {
	i, ok := t.idx.Lookup(id)
	if !ok || int(i) >= len(t.entries) || t.entries[i].Status == 0 {
		return nil
	}
	return &t.entries[i]
}

// Index returns the table's dense neighbor index. The router, the watch
// buffer and the detector scoreboards share it, so one incarnation agrees
// on a single nbrIdx space.
func (t *Table) Index() *Index { return t.idx }

// invalidate drops the cached sorted views after any membership or status
// change. Membership changes also change what counts as a second hop.
func (t *Table) invalidate() {
	t.viewsValid = false
	t.secondValid = false
}

// views rebuilds the sorted ID views if stale. Iteration goes over the
// index's arrival-ordered ID list (every entry key is interned on
// AddDirect), not the entry map, so rebuild order is deterministic. Each
// slice is clipped to its length so a caller's append cannot scribble over
// the shared backing array.
func (t *Table) views() *Table {
	if t.viewsValid {
		return t
	}
	active := make([]field.NodeID, 0, len(t.entries))
	trusted := make([]field.NodeID, 0, len(t.entries))
	all := make([]field.NodeID, 0, len(t.entries))
	for i, id := range t.idx.IDs() {
		if i >= len(t.entries) {
			break // the tail is interned second-hop IDs, never direct
		}
		all = append(all, id)
		switch t.entries[i].Status {
		case 0:
			all = all[:len(all)-1] // second-hop placeholder slot
		case StatusActive:
			active = append(active, id)
			trusted = append(trusted, id)
		case StatusStale:
			trusted = append(trusted, id)
		}
	}
	sort.Slice(active, func(i, j int) bool { return active[i] < active[j] })
	sort.Slice(trusted, func(i, j int) bool { return trusted[i] < trusted[j] })
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	idxs := make([]int32, len(active))
	for i, id := range active {
		j, _ := t.idx.Lookup(id)
		idxs[i] = j
	}
	t.activeView = active[:len(active):len(active)]
	t.activeIdxs = idxs[:len(idxs):len(idxs)]
	t.trustedView = trusted[:len(trusted):len(trusted)]
	t.allView = all[:len(all):len(all)]
	t.viewsValid = true
	return t
}

// Self returns the table owner's ID.
func (t *Table) Self() field.NodeID { return t.self }

// AddDirect records id as a verified direct neighbor. Adding an existing
// neighbor is a no-op (it does not clear second-hop data or revocation).
func (t *Table) AddDirect(id field.NodeID) {
	if id == t.self {
		return
	}
	i := t.idx.Intern(id)
	for len(t.entries) <= int(i) {
		t.entries = append(t.entries, Entry{})
	}
	if t.entries[i].Status == 0 {
		t.entries[i].Status = StatusActive
		t.invalidate()
	}
}

// SetNeighborSet stores the announced neighbor list of direct neighbor id
// as a sorted, deduplicated slice. It is ignored for nodes that are not
// direct neighbors. Announced IDs are interned: they are the second-hop
// neighborhood, part of the dense index's domain.
func (t *Table) SetNeighborSet(id field.NodeID, neighbors []field.NodeID) {
	if t.entry(id) == nil {
		return
	}
	set := make([]field.NodeID, 0, len(neighbors))
	for _, n := range neighbors {
		if n != id {
			set = append(set, n)
		}
	}
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	// Dedupe in place (announcements should not repeat IDs, but the table
	// must not corrupt its binary-searched invariant if one does).
	keep := 0
	for i, n := range set {
		if i > 0 && n == set[keep-1] {
			continue
		}
		set[keep] = n
		keep++
	}
	set = set[:keep:keep]
	for _, n := range set {
		t.idx.Intern(n)
	}
	// Re-resolve after interning: entry pointers are into the dense slice
	// and must not be held across anything that could grow it.
	t.entry(id).Neighbors = set
	t.secondValid = false
}

// containsSorted reports whether id is in the ascending slice s.
func containsSorted(s []field.NodeID, id field.NodeID) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == id
}

// HasEntry reports whether id is in the table at all (active or revoked).
func (t *Table) HasEntry(id field.NodeID) bool {
	_, _, ok := t.Lookup(id)
	return ok
}

// Lookup returns id's dense index and status in one probe-table access —
// the hot-path combination of HasEntry/IsRevoked/IsStale plus the nbrIdx
// the dense per-neighbor state is addressed by.
func (t *Table) Lookup(id field.NodeID) (int32, Status, bool) {
	i, ok := t.idx.Lookup(id)
	if !ok {
		return 0, 0, false
	}
	st := t.StatusAt(i)
	if st == 0 {
		return 0, 0, false
	}
	return i, st, true
}

// StatusAt returns the status of the ID interned at nbrIdx i, with no
// hashing: 0 when that ID is not a direct neighbor. A caller that resolved
// an ID once reads its current status here, after anything that may have
// revoked it.
func (t *Table) StatusAt(i int32) Status {
	if int(i) >= len(t.entries) {
		return 0
	}
	return t.entries[i].Status
}

// IsNeighbor reports whether id is an active (non-revoked) direct neighbor.
func (t *Table) IsNeighbor(id field.NodeID) bool {
	_, st, ok := t.Lookup(id)
	return ok && st == StatusActive
}

// IsRevoked reports whether id has been revoked.
func (t *Table) IsRevoked(id field.NodeID) bool {
	_, st, ok := t.Lookup(id)
	return ok && st == StatusRevoked
}

// IsStale reports whether id is marked stale (presumed crashed).
func (t *Table) IsStale(id field.NodeID) bool {
	_, st, ok := t.Lookup(id)
	return ok && st == StatusStale
}

// MarkStale moves an active neighbor to the stale state. Revoked neighbors
// stay revoked (a detected attacker that goes quiet is still an attacker).
// It reports whether the status changed.
func (t *Table) MarkStale(id field.NodeID) bool {
	e := t.entry(id)
	if e == nil || e.Status != StatusActive {
		return false
	}
	e.Status = StatusStale
	t.invalidate()
	return true
}

// Refresh moves a stale neighbor back to active — evidence of life (an
// overheard transmission, a re-announced neighbor list) reverses the
// presumed-dead verdict. Revocation is never reversed. It reports whether
// the status changed.
func (t *Table) Refresh(id field.NodeID) bool {
	e := t.entry(id)
	if e == nil || e.Status != StatusStale {
		return false
	}
	e.Status = StatusActive
	t.invalidate()
	return true
}

// Revoke marks a direct neighbor revoked. Revoking an unknown node is a
// no-op; revocation is permanent (the paper's isolation is permanent for
// static networks). It reports whether the status changed.
func (t *Table) Revoke(id field.NodeID) bool {
	e := t.entry(id)
	if e == nil || e.Status == StatusRevoked {
		return false
	}
	e.Status = StatusRevoked
	t.invalidate()
	return true
}

// Neighbors returns the active direct neighbors in ascending order. The
// slice is a shared cached view: callers must treat it as read-only (an
// append reallocates thanks to the capacity clip, but in-place writes would
// corrupt the cache).
func (t *Table) Neighbors() []field.NodeID {
	return t.views().activeView
}

// NeighborIdxs returns the dense indexes of the active direct neighbors,
// parallel to Neighbors(). Hot loops that arm per-neighbor state iterate
// both views together and skip the per-ID map lookup entirely. The slice
// is a shared read-only cached view (see Neighbors).
func (t *Table) NeighborIdxs() []int32 {
	return t.views().activeIdxs
}

// TrustedNeighbors returns the active and stale direct neighbors,
// ascending. Stale entries are presumed crashed but still trusted members;
// a neighbor-list announcement must cover them (with their MAC tag) so a
// rebooted node can verify the list and rebuild its second-hop knowledge —
// at the moment its neighbors re-announce, it is still stale in their
// tables. Revoked entries stay excluded: isolation is permanent. The
// returned slice is a shared read-only cached view (see Neighbors).
func (t *Table) TrustedNeighbors() []field.NodeID {
	return t.views().trustedView
}

// AllEntries returns every direct neighbor (active and revoked), ascending.
// The returned slice is a shared read-only cached view (see Neighbors).
func (t *Table) AllEntries() []field.NodeID {
	return t.views().allView
}

// NeighborsOf returns the announced neighbor list of direct neighbor id,
// ascending (nil if unknown or not yet announced). The slice is the
// entry's stored set: callers must treat it as read-only.
func (t *Table) NeighborsOf(id field.NodeID) []field.NodeID {
	e := t.entry(id)
	if e == nil {
		return nil
	}
	return e.Neighbors
}

// KnowsLink reports whether, to this node's knowledge, prev is a neighbor
// of sender — i.e. the claimed link prev->sender can exist. This is the
// second-hop legitimacy check: "If a node C receives a packet forwarded by
// B purporting to come from A in the previous hop, C discards the packet if
// A is not a second hop neighbor" (paper §4.2.1). A packet originated by
// the sender itself (prev == sender) is always consistent.
func (t *Table) KnowsLink(prev, sender field.NodeID) bool {
	if prev == sender {
		return true
	}
	sidx, _, ok := t.Lookup(sender)
	return ok && t.KnowsLinkAt(prev, sidx)
}

// KnowsLinkAt is KnowsLink for a sender already resolved to the nbrIdx of
// a direct neighbor, and a claimed previous hop other than the sender.
func (t *Table) KnowsLinkAt(prev field.NodeID, sidx int32) bool {
	if prev == t.self {
		// We know our own links directly, and sender is a neighbor.
		return true
	}
	set := t.entries[sidx].Neighbors
	return set != nil && containsSorted(set, prev)
}

// SecondHop returns the set of second-hop neighbors: nodes announced by
// direct neighbors that are not direct neighbors or self, ascending. The
// view is cached and invalidated by membership changes and announcements;
// the returned slice is shared and read-only (see Neighbors).
func (t *Table) SecondHop() []field.NodeID {
	if t.secondValid {
		return t.secondView
	}
	var out []field.NodeID
	for _, id := range t.views().allView {
		for _, n := range t.entry(id).Neighbors {
			if n != t.self && !t.HasEntry(n) {
				out = append(out, n)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	keep := 0
	for i, n := range out {
		if i > 0 && n == out[keep-1] {
			continue
		}
		out[keep] = n
		keep++
	}
	out = out[:keep:keep]
	t.secondView = out
	t.secondValid = true
	return out
}

// MemoryBytes returns the storage footprint of the table using the paper's
// cost model (§5.2): 5 bytes per direct-neighbor entry (4-byte ID plus
// 1-byte MalC) and 4 bytes per stored second-hop ID.
func (t *Table) MemoryBytes() int {
	total := 0
	for i := range t.entries {
		if t.entries[i].Status == 0 {
			continue
		}
		total += 5
		total += 4 * len(t.entries[i].Neighbors)
	}
	return total
}
