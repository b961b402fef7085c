package packet

import "testing"

// TestPoolReleasePastZeroPanics: a frame released more often than it was
// referenced would otherwise go on the free list twice and be handed to
// two owners at once.
func TestPoolReleasePastZeroPanics(t *testing.T) {
	var pl Pool
	p := pl.get()
	p.Retain()
	p.Release()
	p.Release() // the last reference: back in the pool
	defer func() {
		if recover() == nil {
			t.Fatal("a release past zero did not panic")
		}
	}()
	p.Release()
}

// TestPoolLifetime walks one frame through its references: it returns to
// the pool only with its last release, Recycled sees it then with its
// content intact, and the next Clone reuses it, cleared, with its route's
// capacity and room for one more hop.
func TestPoolLifetime(t *testing.T) {
	var pl Pool
	var recycled []*Packet
	var seqs []uint64
	pl.Recycled = func(p *Packet) {
		recycled = append(recycled, p)
		seqs = append(seqs, p.Seq)
	}
	src := &Packet{Type: TypeRouteRequest, Seq: 7, Route: []NodeID{1, 2, 3}, Payload: []byte("x")}
	p := pl.Clone(src)
	if !samePacket(p.Clone(), src) || &p.Route[0] == &src.Route[0] {
		t.Fatalf("Clone = %+v, want a deep copy of %+v", p, src)
	}
	if cap(p.Route) < len(src.Route)+1 {
		t.Fatalf("route capacity %d leaves no room for one more hop", cap(p.Route))
	}
	p.Retain() // a delivery batch
	p.Release()
	if len(recycled) != 0 {
		t.Fatal("frame recycled while a reference was held")
	}
	p.Release()
	if len(recycled) != 1 || recycled[0] != p || seqs[0] != 7 {
		t.Fatalf("last release recycled %d frames (seqs %v), want the frame once, with seq 7", len(recycled), seqs)
	}

	q := pl.Clone(&Packet{Type: TypeData, Seq: 8, Route: []NodeID{4, 5}})
	if q != p {
		t.Fatal("the next Clone did not reuse the released frame")
	}
	if q.Seq != 8 || len(q.Route) != 2 || len(q.Payload) != 0 || cap(q.Route) < 4 {
		t.Fatalf("reused frame = %+v (route cap %d), want seq 8, route [4 5], no payload, the old capacity",
			q, cap(q.Route))
	}
	if c := q.Clone(); c.pool != nil || c.refs != 0 {
		t.Fatal("Clone of a pooled frame is pooled; a receiver's copy must be ordinary")
	}
	q.Release()
}

// TestOrdinaryFrameIgnoresReferences: frames not taken from a pool have no
// count, so Retain and Release leave them alone however often they run.
func TestOrdinaryFrameIgnoresReferences(t *testing.T) {
	p := &Packet{Type: TypeAlert, Seq: 1, MAC: []byte{1}}
	p.Retain()
	p.Release()
	p.Release()
	if p.Seq != 1 || len(p.MAC) != 1 {
		t.Fatalf("ordinary frame changed: %+v", p)
	}
}

// TestPoolDrainedBurstIsBounded: a burst of 1,000 frames in flight at
// once, all released, leaves at most poolSlack frames on the free list and
// a free list array a few times that, not the burst's peak; the frames
// still out keep their share.
func TestPoolDrainedBurstIsBounded(t *testing.T) {
	var pl Pool
	src := &Packet{Type: TypeRouteRequest, Route: []NodeID{1, 2}}
	burst := make([]*Packet, 1000)
	for i := range burst {
		burst[i] = pl.Clone(src)
	}
	for _, p := range burst[10:] {
		p.Release()
	}
	if got := len(pl.free); got != 10+poolSlack {
		t.Fatalf("%d frames out: free list holds %d, want %d", 10, got, 10+poolSlack)
	}
	for _, p := range burst[:10] {
		p.Release()
	}
	if got, c := len(pl.free), cap(pl.free); got > poolSlack || c > 8*poolSlack || pl.out != 0 {
		t.Fatalf("drained burst left %d free frames in an array of %d (%d out), want at most %d in %d",
			got, c, pl.out, poolSlack, 8*poolSlack)
	}
}
