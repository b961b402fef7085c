// Package routing implements the generic on-demand shortest-path routing
// protocol the paper evaluates LITEWORP on: route requests (REQ) flooded
// through the network accumulating a source route, route replies (REP)
// unicast back along the reverse path by the destination, a route cache
// with a timeout (TOutRoute), and source-routed data forwarding. Every
// forwarder explicitly announces the immediate source of the packet it
// forwards (the PrevHop field) — the hook local monitoring needs.
//
// The router is transport only: neighbor checks, monitoring and attacker
// behavior are composed around it by the node layer, which decides which
// received frames reach the router's Handle* methods.
package routing

import (
	"errors"
	"fmt"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/neighbor"
	"liteworp/internal/ordered"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// Protocol constants, fixed for every run.
const (
	// requestTimeout is how long the source waits for a REP. Discovery
	// is attempted once: when no REP arrives in time, the queued
	// payloads are discarded and counted in Stats.SendsFailed, and the
	// next Send to the destination starts a fresh discovery.
	requestTimeout = 3 * time.Second
	// seenTTL is how long a node suppresses the copies of a REQ flood it
	// has marked (see Floods).
	seenTTL = 30 * time.Second
	// maxQueue bounds payloads queued per destination while discovery
	// is in progress.
	maxQueue = 64
	// maxSendFailures is the dead next-hop threshold: after this many
	// consecutive unicast send failures (the MAC's no-ack signal — the
	// neighbor crashed or the link flapped) toward the same next hop, all
	// routes and forwarding entries through that hop are evicted and the
	// failing payload re-enters discovery. A successful send to the hop
	// resets its counter. Note this is distinct from the isolation rule:
	// sends blocked because the next hop is revoked are refused silently
	// by the node layer and never reach this counter, so the paper's
	// no-repair cached-route tail (Fig. 8) is preserved.
	maxSendFailures = 3
)

// Config tunes the routing protocol.
type Config struct {
	// RouteTimeout is TOutRoute: cached routes are evicted after this
	// (paper Table 2: 50 s).
	RouteTimeout time.Duration
	// ForwardJitter is the random backoff before rebroadcasting a REQ
	// ("during the route request forwarding, the nodes typically back off
	// for a random amount of time before forwarding"). The
	// protocol-deviation (rushing) attacker sets this to zero.
	ForwardJitter time.Duration
	// SendRouteErrors enables RERR signaling: a forwarder that cannot
	// deliver a data packet (revoked next hop, missing table entry)
	// reports back to the source, which evicts the stale route
	// immediately instead of waiting out TOutRoute. Off by default — the
	// paper's routing has no route repair, which is what produces the
	// cached-route tail in Fig. 8; the ablation bench quantifies how much
	// of that tail RERR removes.
	SendRouteErrors bool
	// HopByHop switches data forwarding from DSR-style source routes to
	// AODV-style per-hop forwarding tables: REQ/REP still accumulate a
	// route (which is how reverse/forward table entries are learned and
	// how the source classifies the path), but data packets carry no
	// route and each forwarder consults its own table. Both on-demand
	// styles the paper names (DSR, AODV) are thereby covered.
	HopByHop bool
	// Index is the node incarnation's dense neighbor index
	// (neighbor.Table.Index()), which the watch layer shares; the
	// per-next-hop failure counters are dense slices addressed by it.
	Index *neighbor.Index
	// Frames is the scenario's frame pool (medium.Medium.Frames()), from
	// which the router takes every frame it sends; a frame always goes
	// back to the pool it came from (see packet.Pool).
	Frames *packet.Pool
	// Floods is the scenario's REQ-suppression table, shared by every
	// router; each incarnation joins it afresh.
	Floods *Floods
}

// Events are the observation hooks; every field is required.
type Events struct {
	// RouteEstablished fires at the source when a REP installs a route.
	RouteEstablished func(dest field.NodeID, route []field.NodeID)
	// DataDelivered fires at the final destination of a data packet.
	DataDelivered func(p *packet.Packet)
}

// Errors.
var (
	ErrSelfSend   = errors.New("routing: destination is self")
	ErrQueueFull  = errors.New("routing: discovery queue full")
	ErrNotOnRoute = errors.New("routing: node not on packet route")
)

// cachedRoute, discoveryState and hopEntry are pooled on per-router
// freelists and dispatch their deadlines through fn, a method value bound
// once per allocated record — re-arming a recycled record schedules no new
// closure.
type cachedRoute struct {
	r       *Router
	dest    field.NodeID
	route   []field.NodeID
	evictor sim.Timer
	fn      sim.Event // prebound (*cachedRoute).expire
}

type discoveryState struct {
	r     *Router
	dest  field.NodeID
	seq   uint64
	queue [][]byte
	timer sim.Timer
	fn    sim.Event // prebound (*discoveryState).timeout
}

// Stats counts router activity at one node.
type Stats struct {
	RequestsOriginated uint64
	RequestsForwarded  uint64
	RepliesOriginated  uint64
	RepliesForwarded   uint64
	RoutesEstablished  uint64
	DataOriginated     uint64
	DataForwarded      uint64
	DataDelivered      uint64
	SendsFailed        uint64
	SendFailures       uint64 // unicast transmissions the MAC reported undeliverable
	DeadHopEvictions   uint64 // next hops whose routes were evicted for send failures
	RouteErrorsSent    uint64
	RouteErrorsRelayed uint64
	RouteErrorsApplied uint64
}

// Router is one node's routing state machine.
//
// Every frame the router sends comes from its frame pool and holds one
// reference, the router's, which it releases as soon as send returns (for
// a REQ forward, when the jitter has passed and the frame is sent).
type Router struct {
	kernel sim.Clock
	self   field.NodeID
	cfg    Config
	send   func(*packet.Packet) error
	events Events
	frames *packet.Pool

	seq       uint64
	cache     map[field.NodeID]*cachedRoute
	discovery map[field.NodeID]*discoveryState
	// floods is the scenario's REQ-suppression table, in which this
	// incarnation marks the floods it originates or first hears at slot.
	floods  *Floods
	slot    int
	forward map[field.NodeID]*hopEntry // HopByHop: dest -> next hop
	// sendFails counts consecutive unicast failures per next hop, dense by
	// the shared neighbor index.
	idx       *neighbor.Index
	sendFails []int

	// Record freelists; see the type comments above.
	freeRoutes []*cachedRoute
	freeHops   []*hopEntry
	freeDisc   []*discoveryState
	freeFwds   []*pendingForward

	// Sorted key views, rebuilt lazily after a membership change and shared
	// between calls (the neighbor-table cached-view pattern): evictVia runs
	// per send failure and CachedDestinations per metrics pass, both on
	// usually-unchanged maps.
	destView   []field.NodeID
	destViewOK bool
	fwdView    []field.NodeID
	fwdViewOK  bool

	stats Stats
}

type hopEntry struct {
	r       *Router
	dest    field.NodeID
	next    field.NodeID
	evictor sim.Timer
	fn      sim.Event // prebound (*hopEntry).expire
}

// New creates a router for node self; send puts a frame on the air.
func New(k sim.Clock, self field.NodeID, cfg Config, send func(*packet.Packet) error, events Events) *Router {
	r := &Router{
		kernel:    k,
		self:      self,
		cfg:       cfg,
		send:      send,
		events:    events,
		frames:    cfg.Frames,
		idx:       cfg.Index,
		cache:     make(map[field.NodeID]*cachedRoute),
		discovery: make(map[field.NodeID]*discoveryState),
		forward:   make(map[field.NodeID]*hopEntry),
		floods:    cfg.Floods,
	}
	r.slot = r.floods.join(self)
	return r
}

// Index returns the dense neighbor index the router keys its per-next-hop
// state by.
func (r *Router) Index() *neighbor.Index { return r.idx }

// unicast transmits an addressed frame and keeps the dead next-hop
// accounting: the medium's error return models the MAC ACK timeout, so N
// consecutive failures toward the same neighbor mean the link is gone —
// evict everything routed through it rather than blackholing traffic for
// the rest of TOutRoute.
func (r *Router) unicast(next field.NodeID, p *packet.Packet) error {
	err := r.send(p)
	if err == nil {
		if idx, ok := r.idx.Lookup(next); ok && int(idx) < len(r.sendFails) {
			r.sendFails[idx] = 0
		}
		return nil
	}
	r.stats.SendFailures++
	idx := r.idx.Intern(next)
	for int(idx) >= len(r.sendFails) {
		r.sendFails = append(r.sendFails, 0)
	}
	r.sendFails[idx]++
	if r.sendFails[idx] >= maxSendFailures {
		r.evictVia(next)
	}
	return err
}

// evictVia drops every cached route and forwarding entry whose first hop is
// next, resetting the hop's failure counter. It iterates the cached sorted
// views — snapshots that stay valid while the maps are mutated underneath
// (rebuilds allocate fresh backing).
func (r *Router) evictVia(next field.NodeID) {
	if idx, ok := r.idx.Lookup(next); ok && int(idx) < len(r.sendFails) {
		r.sendFails[idx] = 0
	}
	for _, dest := range r.destinations() {
		cr := r.cache[dest]
		if cr != nil && len(cr.route) >= 2 && cr.route[1] == next {
			cr.evictor.Cancel()
			delete(r.cache, dest)
			r.destViewOK = false
			r.recycleRoute(cr)
		}
	}
	for _, dest := range r.forwardDests() {
		if e := r.forward[dest]; e != nil && e.next == next {
			e.evictor.Cancel()
			delete(r.forward, dest)
			r.fwdViewOK = false
			r.recycleHop(e)
		}
	}
	r.stats.DeadHopEvictions++
}

// destinations returns the sorted cached-route keys, rebuilding the shared
// view only after a membership change. The slice is capacity-clipped: an
// append by a caller cannot scribble over the shared backing, and because
// rebuilds allocate fresh, a holder of the old view can keep iterating it
// across mutations.
func (r *Router) destinations() []field.NodeID {
	if !r.destViewOK {
		v := ordered.Keys(r.cache)
		r.destView = v[:len(v):len(v)]
		r.destViewOK = true
	}
	return r.destView
}

// forwardDests is the same view over the per-hop forwarding table.
func (r *Router) forwardDests() []field.NodeID {
	if !r.fwdViewOK {
		v := ordered.Keys(r.forward)
		r.fwdView = v[:len(v):len(v)]
		r.fwdViewOK = true
	}
	return r.fwdView
}

// newHop takes a forwarding entry from the freelist (or allocates one,
// binding its eviction dispatch exactly once).
func (r *Router) newHop(dest, next field.NodeID) *hopEntry {
	var e *hopEntry
	if n := len(r.freeHops); n > 0 {
		e = r.freeHops[n-1]
		r.freeHops[n-1] = nil
		r.freeHops = r.freeHops[:n-1]
	} else {
		e = &hopEntry{r: r}
		e.fn = e.expire
	}
	e.dest, e.next = dest, next
	return e
}

func (r *Router) recycleHop(e *hopEntry) {
	e.evictor = sim.Timer{}
	r.freeHops = append(r.freeHops, e)
}

// expire is the forwarding-entry timeout; the identity check fences off a
// stale deadline when the entry was refreshed in the meantime.
func (e *hopEntry) expire() {
	r := e.r
	if r.forward[e.dest] != e {
		return
	}
	delete(r.forward, e.dest)
	r.fwdViewOK = false
	r.recycleHop(e)
}

// setForward installs (or refreshes) a per-hop forwarding entry toward
// dest, expiring with the route timeout.
func (r *Router) setForward(dest, next field.NodeID) {
	if dest == r.self {
		return
	}
	if old, ok := r.forward[dest]; ok {
		old.evictor.Cancel()
		r.recycleHop(old)
	} else {
		r.fwdViewOK = false
	}
	e := r.newHop(dest, next)
	e.evictor = r.kernel.After(r.cfg.RouteTimeout, e.fn)
	r.forward[dest] = e
}

// NextHop returns the per-hop forwarding entry toward dest (HopByHop mode).
func (r *Router) NextHop(dest field.NodeID) (field.NodeID, bool) {
	e, ok := r.forward[dest]
	if !ok {
		return 0, false
	}
	return e.next, true
}

// Self returns the owning node's ID.
func (r *Router) Self() field.NodeID { return r.self }

// Stats returns a copy of the router counters.
func (r *Router) Stats() Stats { return r.stats }

// Route returns the cached route to dest, or nil.
func (r *Router) Route(dest field.NodeID) []field.NodeID {
	cr, ok := r.cache[dest]
	if !ok {
		return nil
	}
	out := make([]field.NodeID, len(cr.route))
	copy(out, cr.route)
	return out
}

// HasRoute reports whether a route to dest is cached.
func (r *Router) HasRoute(dest field.NodeID) bool {
	_, ok := r.cache[dest]
	return ok
}

func (r *Router) nextSeq() uint64 {
	r.seq++
	return r.seq
}

// Send routes a payload to dest, triggering route discovery if needed.
func (r *Router) Send(dest field.NodeID, payload []byte) error {
	if dest == r.self {
		return ErrSelfSend
	}
	if cr, ok := r.cache[dest]; ok {
		r.sendData(cr.route, payload)
		return nil
	}
	ds, ok := r.discovery[dest]
	if !ok {
		ds = r.newDiscovery(dest)
		r.discovery[dest] = ds
		r.startDiscovery(dest, ds)
	}
	if len(ds.queue) >= maxQueue {
		return fmt.Errorf("%w: dest %d", ErrQueueFull, dest)
	}
	ds.queue = append(ds.queue, payload)
	return nil
}

func (r *Router) startDiscovery(dest field.NodeID, ds *discoveryState) {
	ds.seq = r.nextSeq()
	req := r.frames.Clone(&packet.Packet{
		Type:      packet.TypeRouteRequest,
		Seq:       ds.seq,
		Origin:    r.self,
		FinalDest: dest,
		Sender:    r.self,
		PrevHop:   r.self,
		Receiver:  packet.Broadcast,
	})
	req.Route = append(req.Route, r.self)
	r.stats.RequestsOriginated++
	// Mark our own request as seen so a reflected copy is not reflooded.
	r.markSeen(req.Key())
	_ = r.send(req)
	req.Release()
	ds.timer = r.kernel.After(requestTimeout, ds.fn)
}

// newDiscovery takes a discovery record from the freelist (or allocates
// one, binding its timeout dispatch exactly once).
func (r *Router) newDiscovery(dest field.NodeID) *discoveryState {
	var ds *discoveryState
	if n := len(r.freeDisc); n > 0 {
		ds = r.freeDisc[n-1]
		r.freeDisc[n-1] = nil
		r.freeDisc = r.freeDisc[:n-1]
	} else {
		ds = &discoveryState{r: r}
		ds.fn = ds.timeout
	}
	ds.dest = dest
	return ds
}

func (r *Router) recycleDiscovery(ds *discoveryState) {
	for i := range ds.queue {
		ds.queue[i] = nil // release payload references now, not at reuse
	}
	ds.queue = ds.queue[:0]
	ds.timer = sim.Timer{}
	r.freeDisc = append(r.freeDisc, ds)
}

func (ds *discoveryState) timeout() {
	r := ds.r
	if r.discovery[ds.dest] != ds {
		return // resolved in the meantime
	}
	delete(r.discovery, ds.dest)
	r.stats.SendsFailed += uint64(len(ds.queue))
	r.recycleDiscovery(ds)
}

func (r *Router) markSeen(k packet.Key) {
	r.floods.add(floodKey(k), r.slot, r.kernel.Now())
}

// HandleRouteRequest processes a REQ heard from the channel. The node layer
// calls it only for frames that passed its acceptance checks.
func (r *Router) HandleRouteRequest(p *packet.Packet) {
	k := p.Key()
	if r.floods.live(floodKey(k), r.slot, r.kernel.Now()) {
		return // "each node broadcasts only the first route request"
	}
	r.markSeen(k)
	if p.FinalDest == r.self {
		// Only the first copy gets here, so the destination answers each
		// flood once: the first arrival defines the chosen (fastest) path,
		// which is also how the wormhole captures routes.
		r.answerRequest(p)
		return
	}
	if contains(p.Route, r.self) {
		return // routing loop
	}
	fwd := r.frames.Clone(p)
	fwd.Route = append(fwd.Route, r.self)
	fwd.HopCount++
	fwd.PrevHop = p.Sender
	fwd.Sender = r.self
	fwd.Receiver = packet.Broadcast
	r.stats.RequestsForwarded++
	jitter := r.kernel.UniformDuration(r.cfg.ForwardJitter)
	r.kernel.After(jitter, r.newForward(fwd).fire)
}

// pendingForward is a REQ forward waiting out its jitter. It holds the
// router's reference to the frame until fire has sent it. Records are
// pooled like hopEntry; a crash cancels the pending fire with the rest of
// the incarnation, and the record and its frame are then garbage.
type pendingForward struct {
	r     *Router
	frame *packet.Packet
	fire  sim.Event // prebound (*pendingForward).send
}

// newForward takes a forward record for frame from the freelist (or
// allocates one, binding its dispatch exactly once).
func (r *Router) newForward(frame *packet.Packet) *pendingForward {
	var f *pendingForward
	if n := len(r.freeFwds); n > 0 {
		f = r.freeFwds[n-1]
		r.freeFwds[n-1] = nil
		r.freeFwds = r.freeFwds[:n-1]
	} else {
		f = &pendingForward{r: r}
		f.fire = f.send
	}
	f.frame = frame //lint:pooled the record holds the router's reference until send releases it
	return f
}

func (r *Router) recycleForward(f *pendingForward) {
	f.frame = nil
	r.freeFwds = append(r.freeFwds, f)
}

// send transmits the frame once its jitter has passed and releases the
// router's reference.
func (f *pendingForward) send() {
	r := f.r
	_ = r.send(f.frame)
	f.frame.Release()
	r.recycleForward(f)
}

func (r *Router) answerRequest(p *packet.Packet) {
	if len(p.Route) == 0 {
		return // the full route would not reach back to a previous hop
	}
	rep := r.frames.Clone(&packet.Packet{
		Type:      packet.TypeRouteReply,
		Seq:       p.Seq, // REP shares the request's identity
		Origin:    p.Origin,
		FinalDest: p.Origin,
		Sender:    r.self,
		PrevHop:   r.self,
		Receiver:  p.Route[len(p.Route)-1],
		HopCount:  0,
		Route:     p.Route,
	})
	rep.Route = append(rep.Route, r.self)
	r.stats.RepliesOriginated++
	_ = r.unicast(rep.Receiver, rep)
	rep.Release()
}

// HandleRouteReply processes a REP addressed to this node.
func (r *Router) HandleRouteReply(p *packet.Packet) {
	if p.Receiver != r.self {
		return
	}
	if p.FinalDest == r.self {
		r.installRoute(p)
		return
	}
	idx := indexOf(p.Route, r.self)
	if idx <= 0 {
		return // not on the route, or malformed
	}
	if r.cfg.HopByHop && len(p.Route) > 0 {
		// Learn both directions while relaying the REP: toward the
		// request origin via the node we hand the REP to, and toward the
		// replying destination via the node we got it from.
		r.setForward(p.FinalDest, p.Route[idx-1])
		r.setForward(p.Route[len(p.Route)-1], p.Sender)
	}
	fwd := r.frames.Clone(p)
	fwd.PrevHop = p.Sender
	fwd.Sender = r.self
	fwd.Receiver = p.Route[idx-1]
	fwd.HopCount++
	r.stats.RepliesForwarded++
	_ = r.unicast(fwd.Receiver, fwd)
	fwd.Release()
}

func (r *Router) installRoute(p *packet.Packet) {
	if len(p.Route) < 2 || p.Route[0] != r.self {
		return
	}
	dest := p.Route[len(p.Route)-1]
	// A late reply to an earlier, timed-out discovery for dest is still
	// a usable route, so no seq check here: any authentic REP terminating
	// at dest installs, first reply wins.
	ds, pending := r.discovery[dest]
	if _, exists := r.cache[dest]; exists {
		return
	}
	cr := r.newRoute(dest, p.Route)
	if r.cfg.HopByHop && len(cr.route) >= 2 {
		r.setForward(dest, cr.route[1])
	}
	cr.evictor = r.kernel.After(r.cfg.RouteTimeout, cr.fn)
	r.cache[dest] = cr
	r.destViewOK = false
	r.stats.RoutesEstablished++
	r.events.RouteEstablished(dest, cr.route)
	if pending {
		ds.timer.Cancel()
		delete(r.discovery, dest)
		for _, payload := range ds.queue {
			r.sendData(cr.route, payload)
		}
		r.recycleDiscovery(ds)
	}
}

// newRoute takes a route record from the freelist (or allocates one,
// binding its eviction dispatch exactly once) and copies route into its
// reused backing array.
func (r *Router) newRoute(dest field.NodeID, route []field.NodeID) *cachedRoute {
	var cr *cachedRoute
	if n := len(r.freeRoutes); n > 0 {
		cr = r.freeRoutes[n-1]
		r.freeRoutes[n-1] = nil
		r.freeRoutes = r.freeRoutes[:n-1]
	} else {
		cr = &cachedRoute{r: r}
		cr.fn = cr.expire
	}
	cr.dest = dest
	cr.route = append(cr.route[:0], route...)
	return cr
}

func (r *Router) recycleRoute(cr *cachedRoute) {
	cr.evictor = sim.Timer{}
	r.freeRoutes = append(r.freeRoutes, cr)
}

// expire is the TOutRoute eviction — protocol-observable (the next Send to
// dest re-enters discovery), so it stays on an exact kernel timer. The
// identity check fences off a stale deadline after evict-and-reinstall.
func (cr *cachedRoute) expire() {
	r := cr.r
	if r.cache[cr.dest] != cr {
		return
	}
	delete(r.cache, cr.dest)
	r.destViewOK = false
	r.recycleRoute(cr)
}

func (r *Router) sendData(route []field.NodeID, payload []byte) {
	if len(route) < 2 {
		return
	}
	dest := route[len(route)-1]
	tmpl := packet.Packet{
		Type:      packet.TypeData,
		Seq:       r.nextSeq(),
		Origin:    r.self,
		FinalDest: dest,
		Sender:    r.self,
		PrevHop:   r.self,
		Receiver:  route[1],
		Payload:   payload,
	}
	if !r.cfg.HopByHop {
		tmpl.Route = route
	}
	p := r.frames.Clone(&tmpl)
	r.stats.DataOriginated++
	err := r.unicast(route[1], p)
	p.Release()
	if err != nil && !r.HasRoute(dest) {
		// The failure just evicted the route through the dead first hop:
		// instead of dropping the payload, re-enter discovery with it, so
		// traffic recovers on a fresh path.
		_ = r.Send(dest, payload)
	}
}

// HandleData processes a data packet addressed to this node: it delivers
// locally or forwards along the source route.
func (r *Router) HandleData(p *packet.Packet) error {
	if p.Receiver != r.self {
		return nil
	}
	if p.FinalDest == r.self {
		r.stats.DataDelivered++
		r.events.DataDelivered(p)
		return nil
	}
	var next field.NodeID
	if r.cfg.HopByHop {
		hop, ok := r.NextHop(p.FinalDest)
		if !ok {
			return fmt.Errorf("%w: node %d has no table entry for %d", ErrNotOnRoute, r.self, p.FinalDest)
		}
		next = hop
	} else {
		idx := indexOf(p.Route, r.self)
		if idx < 0 || idx+1 >= len(p.Route) {
			return fmt.Errorf("%w: node %d, route %v", ErrNotOnRoute, r.self, p.Route)
		}
		next = p.Route[idx+1]
	}
	fwd := r.frames.Clone(p)
	fwd.PrevHop = p.Sender
	fwd.Sender = r.self
	fwd.Receiver = next
	fwd.HopCount++
	r.stats.DataForwarded++
	err := r.unicast(next, fwd)
	fwd.Release()
	return err
}

// ReportBrokenRoute originates a RERR toward the data packet's source:
// this node could not forward p (next hop revoked or no table entry). The
// unreachable destination rides in FinalDest-adjacent metadata: Origin is
// this reporter, FinalDest is the data source, and the packet's Seq carries
// the unreachable destination's ID so the source knows which route to
// evict. No-op unless SendRouteErrors is enabled or the packet is not
// routable back.
func (r *Router) ReportBrokenRoute(p *packet.Packet) {
	if !r.cfg.SendRouteErrors || p.Type != packet.TypeData || p.Origin == r.self {
		return
	}
	tmpl := packet.Packet{
		Type:      packet.TypeRouteError,
		Seq:       uint64(p.FinalDest), // unreachable destination
		Origin:    r.self,
		FinalDest: p.Origin,
		Sender:    r.self,
		PrevHop:   r.self,
	}
	switch {
	case r.cfg.HopByHop:
		hop, ok := r.NextHop(p.Origin)
		if !ok {
			return
		}
		tmpl.Receiver = hop
	default:
		idx := indexOf(p.Route, r.self)
		if idx <= 0 {
			return
		}
		tmpl.Receiver = p.Route[idx-1]
		// Carry the reverse path so intermediates need no state.
		tmpl.Route = p.Route[:idx+1]
	}
	rerr := r.frames.Clone(&tmpl)
	r.stats.RouteErrorsSent++
	_ = r.send(rerr)
	rerr.Release()
}

// HandleRouteError processes a RERR addressed to this node: relay it
// toward the source, or — at the source — evict the dead route.
func (r *Router) HandleRouteError(p *packet.Packet) {
	if p.Receiver != r.self {
		return
	}
	if p.FinalDest == r.self {
		dest := field.NodeID(p.Seq)
		if _, ok := r.cache[dest]; ok {
			r.EvictRoute(dest)
			r.stats.RouteErrorsApplied++
		}
		return
	}
	// Relay toward the source.
	var next field.NodeID
	switch {
	case r.cfg.HopByHop:
		hop, ok := r.NextHop(p.FinalDest)
		if !ok {
			return
		}
		next = hop
	default:
		idx := indexOf(p.Route, r.self)
		if idx <= 0 {
			return
		}
		next = p.Route[idx-1]
	}
	fwd := r.frames.Clone(p)
	fwd.PrevHop = p.Sender
	fwd.Sender = r.self
	fwd.Receiver = next
	fwd.HopCount++
	r.stats.RouteErrorsRelayed++
	_ = r.send(fwd)
	fwd.Release()
}

// EvictRoute drops the cached route to dest (e.g. on link failure).
func (r *Router) EvictRoute(dest field.NodeID) {
	cr, ok := r.cache[dest]
	if !ok {
		return
	}
	cr.evictor.Cancel()
	delete(r.cache, dest)
	r.destViewOK = false
	r.recycleRoute(cr)
}

// CachedDestinations lists destinations with live routes, sorted. The
// returned slice is a shared capacity-clipped view — treat it as read-only;
// it stays valid (as a snapshot) across cache mutations.
func (r *Router) CachedDestinations() []field.NodeID {
	return r.destinations()
}

func contains(route []field.NodeID, id field.NodeID) bool {
	return indexOf(route, id) >= 0
}

func indexOf(route []field.NodeID, id field.NodeID) int {
	for i, x := range route {
		if x == id {
			return i
		}
	}
	return -1
}
