package packet

// Pool recycles the frames routing builds per hop, so a warm forward
// allocates nothing. A pooled frame carries a reference count, and the
// rule is that whoever holds a reference releases it exactly once: the
// sender until its hand-over to the medium returns, each delivery batch
// until it has fired, each airtime deferral or retransmission event until
// it has run. The last Release returns the frame to its pool, which may
// hand it out again at once; a receiver that wants the frame past its
// delivery call must Clone it, as for any shared frame.
//
// Frames not taken from a Pool (discovery, alert and attacker frames,
// decoded frames) carry no count, and Retain and Release leave them alone.
//
// The free list keeps at most poolSlack more frames than are out at the
// time; a frame released past that goes to the collector. So a flood's
// burst of frames in flight is given back once it drains, rather than
// kept at its peak for the rest of the run.
//
// The zero Pool is empty and ready to use. A Pool is not safe for
// concurrent use; one scenario's kernel, medium and routers share one.
type Pool struct {
	free []*Packet
	out  int // frames handed out and not yet back

	// Recycled, when non-nil, sees each frame as its last reference is
	// released, before the pool clears it: the point after which nothing
	// may read the frame.
	Recycled func(*Packet)
}

// poolSlack is how many free frames beyond those out the pool keeps: a
// warm routed hop takes and returns one or two at a time, so it never
// reaches past the free list.
const poolSlack = 32

// get returns an empty frame holding one reference, the caller's. Its
// Route, Payload and MAC are empty but keep the capacity of earlier uses.
func (pl *Pool) get() *Packet {
	pl.out++
	n := len(pl.free)
	if n == 0 {
		return &Packet{pool: pl, refs: 1}
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	p.refs = 1
	return p
}

// Clone returns a pooled deep copy of p holding one reference, the
// caller's. Its Route has room for one more hop, so a REQ forward appends
// itself without growing it.
func (pl *Pool) Clone(p *Packet) *Packet {
	q := pl.get()
	route, payload, mac := q.Route[:0], q.Payload[:0], q.MAC[:0]
	if cap(route) <= len(p.Route) {
		route = make([]NodeID, 0, len(p.Route)+1)
	}
	*q = *p
	q.pool, q.refs = pl, 1
	q.Route = append(route, p.Route...)
	q.Payload = append(payload, p.Payload...)
	q.MAC = append(mac, p.MAC...)
	return q
}

// Retain adds a reference to a pooled frame.
func (p *Packet) Retain() {
	if p.pool != nil {
		p.refs++
	}
}

// Release drops one reference to a pooled frame; the last one returns it
// to its pool, after which no holder may touch it. Releasing a frame more
// times than it was referenced is a bug, and panics.
func (p *Packet) Release() {
	if p.pool == nil {
		return
	}
	if p.refs <= 0 {
		panic("packet: frame released more often than it was referenced")
	}
	p.refs--
	if p.refs == 0 {
		p.pool.recycle(p)
	}
}

// recycle clears a frame whose last reference is gone, keeping its
// slices' capacity, and puts it on the free list, which holds at most
// poolSlack frames more than are out. At that bound the frame goes to the
// collector instead, and so does one more from the free list if one fewer
// out has left it past the bound. A free list left with a quarter of its
// array in use moves to a smaller one.
func (pl *Pool) recycle(p *Packet) {
	if pl.Recycled != nil {
		pl.Recycled(p)
	}
	pl.out--
	if n := len(pl.free); n >= pl.out+poolSlack {
		*p = Packet{}
		if n > pl.out+poolSlack {
			pl.free[n-1] = nil
			pl.free = pl.free[:n-1]
		}
		if c := cap(pl.free); c > 4*poolSlack && len(pl.free) <= c/4 {
			pl.free = append(make([]*Packet, 0, 2*len(pl.free)), pl.free...)
		}
		return
	}
	*p = Packet{Route: p.Route[:0], Payload: p.Payload[:0], MAC: p.MAC[:0], pool: pl}
	pl.free = append(pl.free, p)
}
