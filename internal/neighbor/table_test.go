package neighbor

import (
	"testing"

	"liteworp/internal/field"
)

func TestAddDirectAndIsNeighbor(t *testing.T) {
	tb := NewTable(1)
	tb.AddDirect(2)
	tb.AddDirect(3)
	tb.AddDirect(1) // self: ignored
	if !tb.IsNeighbor(2) || !tb.IsNeighbor(3) {
		t.Fatal("direct neighbors not recognized")
	}
	if tb.IsNeighbor(1) {
		t.Fatal("self recorded as neighbor")
	}
	if tb.IsNeighbor(4) {
		t.Fatal("unknown node recognized as neighbor")
	}
	if got := tb.Neighbors(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Neighbors = %v", got)
	}
	if tb.Self() != 1 {
		t.Fatalf("Self = %d", tb.Self())
	}
}

func TestAddDirectIdempotentKeepsData(t *testing.T) {
	tb := NewTable(1)
	tb.AddDirect(2)
	tb.SetNeighborSet(2, []field.NodeID{5, 6})
	tb.AddDirect(2)
	if !tb.KnowsLink(5, 2) {
		t.Fatal("re-adding a neighbor cleared its second-hop data")
	}
}

func TestRevoke(t *testing.T) {
	tb := NewTable(1)
	tb.AddDirect(2)
	if !tb.Revoke(2) {
		t.Fatal("Revoke returned false for active neighbor")
	}
	if tb.Revoke(2) {
		t.Fatal("second Revoke returned true")
	}
	if tb.Revoke(99) {
		t.Fatal("Revoke of unknown node returned true")
	}
	if tb.IsNeighbor(2) {
		t.Fatal("revoked node still an active neighbor")
	}
	if !tb.IsRevoked(2) {
		t.Fatal("IsRevoked false after revocation")
	}
	if !tb.HasEntry(2) {
		t.Fatal("revoked node lost its entry")
	}
	if got := tb.Neighbors(); len(got) != 0 {
		t.Fatalf("Neighbors after revoke = %v", got)
	}
	if got := tb.AllEntries(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("AllEntries = %v", got)
	}
}

func TestSetNeighborSetRequiresDirect(t *testing.T) {
	tb := NewTable(1)
	tb.SetNeighborSet(9, []field.NodeID{5})
	if tb.KnowsLink(5, 9) {
		t.Fatal("stored second-hop data for a non-neighbor")
	}
}

func TestSetNeighborSetExcludesOwner(t *testing.T) {
	tb := NewTable(1)
	tb.AddDirect(2)
	tb.SetNeighborSet(2, []field.NodeID{2, 5})
	nset := tb.NeighborsOf(2)
	if containsSorted(nset, 2) {
		t.Fatal("a node listed as its own neighbor")
	}
	if !containsSorted(nset, 5) {
		t.Fatal("legitimate second hop missing")
	}
}

func TestKnowsLink(t *testing.T) {
	tb := NewTable(1)
	tb.AddDirect(2)
	tb.AddDirect(3)
	tb.SetNeighborSet(2, []field.NodeID{1, 4})

	// Self-originated packets are always consistent.
	if !tb.KnowsLink(2, 2) {
		t.Fatal("prev==sender rejected")
	}
	// 4 is announced as 2's neighbor.
	if !tb.KnowsLink(4, 2) {
		t.Fatal("valid second-hop link rejected")
	}
	// 5 is not announced as 2's neighbor.
	if tb.KnowsLink(5, 2) {
		t.Fatal("fabricated link accepted")
	}
	// We know our own links: prev==self means sender must be our neighbor.
	if !tb.KnowsLink(1, 2) {
		t.Fatal("own link to direct neighbor rejected")
	}
	if tb.KnowsLink(1, 9) {
		t.Fatal("own link to stranger accepted")
	}
	// 3 never announced a list: unknown links are rejected.
	if tb.KnowsLink(4, 3) {
		t.Fatal("link via neighbor without announced list accepted")
	}
}

// TestStatusAt reads statuses by nbrIdx, as the receive path does once it
// has resolved a sender: a direct neighbor reads its current status,
// revoked included (guards keep watching a revoked node's links), and an
// interned ID that is no direct neighbor reads 0, whether its slot is a
// second-hop placeholder or past the entries.
func TestStatusAt(t *testing.T) {
	tb := NewTable(1)
	tb.AddDirect(2)
	tb.AddDirect(3)
	tb.SetNeighborSet(3, []field.NodeID{9})
	tb.AddDirect(4)
	at := func(id field.NodeID) Status {
		i, ok := tb.Index().Lookup(id)
		if !ok {
			t.Fatalf("%d not interned", id)
		}
		return tb.StatusAt(i)
	}
	if at(2) != StatusActive || at(3) != StatusActive {
		t.Fatal("direct neighbors not active by index")
	}
	// 9 was interned between 3 and 4: a placeholder slot inside entries.
	if at(9) != 0 {
		t.Fatalf("second-hop 9 reads %v by index, want 0", at(9))
	}
	tb.SetNeighborSet(4, []field.NodeID{10})
	if at(10) != 0 {
		t.Fatal("an index past the entries must read 0")
	}
	tb.Revoke(2)
	if at(2) != StatusRevoked {
		t.Fatal("revocation not visible by index")
	}
	tb.MarkStale(3)
	if at(3) != StatusStale {
		t.Fatal("stale mark not visible by index")
	}
}

// TestKnowsLinkAt: the index form answers as KnowsLink does for every
// resolved sender and claimed previous hop.
func TestKnowsLinkAt(t *testing.T) {
	tb := NewTable(1)
	tb.AddDirect(2)
	tb.AddDirect(3)
	tb.SetNeighborSet(2, []field.NodeID{1, 4})
	tb.Revoke(3)
	for _, sender := range []field.NodeID{2, 3} {
		sidx, _, ok := tb.Lookup(sender)
		if !ok {
			t.Fatalf("%d not an entry", sender)
		}
		for _, prev := range []field.NodeID{1, 2, 3, 4, 5} {
			if prev == sender {
				continue
			}
			if got, want := tb.KnowsLinkAt(prev, sidx), tb.KnowsLink(prev, sender); got != want {
				t.Fatalf("KnowsLinkAt(%d, idx of %d) = %v, KnowsLink %v", prev, sender, got, want)
			}
		}
	}
	if !tb.KnowsLink(4, 2) || tb.KnowsLink(5, 2) || !tb.KnowsLink(1, 3) || tb.KnowsLink(4, 3) {
		t.Fatal("KnowsLink answers changed")
	}
}

func TestSecondHop(t *testing.T) {
	tb := NewTable(1)
	tb.AddDirect(2)
	tb.AddDirect(3)
	tb.SetNeighborSet(2, []field.NodeID{1, 3, 4, 5})
	tb.SetNeighborSet(3, []field.NodeID{1, 5, 6})
	got := tb.SecondHop()
	want := []field.NodeID{4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("SecondHop = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SecondHop = %v, want %v", got, want)
		}
	}
}

func TestMemoryBytesMatchesPaperModel(t *testing.T) {
	// Paper §5.2: ~10 neighbors each with ~10-entry lists => < 0.5 KB.
	tb := NewTable(1)
	for i := field.NodeID(2); i <= 11; i++ {
		tb.AddDirect(i)
		list := make([]field.NodeID, 0, 10)
		for j := field.NodeID(20); j < 30; j++ {
			list = append(list, j)
		}
		tb.SetNeighborSet(i, list)
	}
	got := tb.MemoryBytes()
	want := 10*5 + 10*10*4 // 450 bytes
	if got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
	if got >= 512 {
		t.Fatalf("10-neighbor table uses %d B, paper promises < 0.5 KB", got)
	}
}

func TestStatusString(t *testing.T) {
	if StatusActive.String() != "active" || StatusRevoked.String() != "revoked" {
		t.Fatal("status names wrong")
	}
	if Status(9).String() == "" {
		t.Fatal("unknown status empty")
	}
}

// TestCachedViewsTrackStatusChanges exercises the lazily cached sorted
// views through every mutator that must invalidate them.
func TestCachedViewsTrackStatusChanges(t *testing.T) {
	tb := NewTable(1)
	tb.AddDirect(5)
	tb.AddDirect(3)
	if got := tb.Neighbors(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("Neighbors = %v, want [3 5]", got)
	}
	// AddDirect after a view was built must invalidate.
	tb.AddDirect(4)
	if got := tb.Neighbors(); len(got) != 3 || got[1] != 4 {
		t.Fatalf("Neighbors after add = %v, want [3 4 5]", got)
	}
	// MarkStale moves the node out of Neighbors but keeps it trusted.
	tb.MarkStale(4)
	if got := tb.Neighbors(); len(got) != 2 {
		t.Fatalf("Neighbors after stale = %v, want [3 5]", got)
	}
	if got := tb.TrustedNeighbors(); len(got) != 3 {
		t.Fatalf("TrustedNeighbors after stale = %v, want [3 4 5]", got)
	}
	// Refresh restores it.
	tb.Refresh(4)
	if got := tb.Neighbors(); len(got) != 3 {
		t.Fatalf("Neighbors after refresh = %v, want [3 4 5]", got)
	}
	// Revoke removes it from both filtered views but not AllEntries.
	tb.Revoke(4)
	if got := tb.Neighbors(); len(got) != 2 {
		t.Fatalf("Neighbors after revoke = %v, want [3 5]", got)
	}
	if got := tb.TrustedNeighbors(); len(got) != 2 {
		t.Fatalf("TrustedNeighbors after revoke = %v, want [3 5]", got)
	}
	if got := tb.AllEntries(); len(got) != 3 {
		t.Fatalf("AllEntries after revoke = %v, want [3 4 5]", got)
	}
	// No-op mutators must not corrupt anything either.
	tb.Revoke(4)
	tb.MarkStale(99)
	tb.Refresh(3)
	if got := tb.Neighbors(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("Neighbors after no-ops = %v, want [3 5]", got)
	}
}

// TestCachedViewAppendDoesNotCorrupt pins the capacity clip: a caller that
// appends to a returned view must get a fresh backing array, leaving the
// cache intact.
func TestCachedViewAppendDoesNotCorrupt(t *testing.T) {
	tb := NewTable(1)
	tb.AddDirect(2)
	tb.AddDirect(3)
	view := tb.Neighbors()
	grown := append(view, 999)
	if &grown[0] == &view[0] {
		t.Fatal("append grew in place: capacity clip missing")
	}
	again := tb.Neighbors()
	if len(again) != 2 || again[0] != 2 || again[1] != 3 {
		t.Fatalf("cached view corrupted by caller append: %v", again)
	}
}

// TestNeighborsViewAllocFree: repeated reads of an unchanged table must not
// allocate — the whole point of the cache.
func TestNeighborsViewAllocFree(t *testing.T) {
	tb := NewTable(1)
	for i := field.NodeID(2); i <= 20; i++ {
		tb.AddDirect(i)
	}
	tb.Neighbors() // build once
	allocs := testing.AllocsPerRun(100, func() {
		_ = tb.Neighbors()
		_ = tb.TrustedNeighbors()
		_ = tb.AllEntries()
	})
	if allocs != 0 {
		t.Fatalf("cached views allocate %.1f objects per read, want 0", allocs)
	}
}
