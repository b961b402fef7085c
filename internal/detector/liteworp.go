package detector

import (
	"liteworp/internal/field"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/watch"
)

// liteworpDetector is the paper's guard logic (§4.2.3) behind the
// Detector interface: the watch buffer tracks forwarding obligations and
// windowed MalC counters, fabrication and drop observations feed the
// accusation callback, and the threshold callback hands revocation to the
// engine's response protocol. It is the extraction of the pre-detector
// core engine's monitoring path and must stay observation-for-observation
// identical to it (the golden trace hashes pin this).
type liteworpDetector struct {
	env    Env
	cfg    Config
	buffer *watch.Buffer
}

func newLiteworpDetector(env Env, cfg Config) Detector {
	wcfg := cfg.Watch
	wcfg.DropFilter = env.DropFilter
	// Share the host table's dense neighbor index so the buffer and the
	// routing layer agree on nbrIdx values.
	wcfg.Index = env.Table.Index()
	wcfg.Self = env.Table.Self()
	d := &liteworpDetector{env: env, cfg: cfg}
	d.buffer = watch.New(env.Clock, wcfg, env.OnAccusation, env.OnThreshold)
	return d
}

// Name returns KindLiteworp.
func (d *liteworpDetector) Name() string { return KindLiteworp }

// Buffer exposes the watch buffer (for inspection and tests); the engine
// surfaces it through the same type assertion.
func (d *liteworpDetector) Buffer() *watch.Buffer { return d.buffer }

// OwnSend records the host's own control transmissions as heard facts
// (own sends, on the reception log): a node is the guard of all its own
// outgoing links (§4.2.1), so when a neighbor forwards a packet claiming
// "I got this from you", the node must be able to tell whether it really
// sent it. The fact is keyed by the host itself, on which no expectation
// is ever armed, so it neither satisfies nor suppresses an expectation on
// any neighbor.
func (d *liteworpDetector) OwnSend(p *packet.Packet) {
	d.buffer.RecordHeard(d.env.Table.Self(), p.Key())
}

// Interference forwards a radio CRC-failure signal to the guard
// bookkeeping (see watch.Buffer.NoteInterference).
func (d *liteworpDetector) Interference() { d.buffer.NoteInterference() }

// Announcement is ignored: local monitoring judges forwarding behavior,
// not announced tables.
func (d *liteworpDetector) Announcement(field.NodeID, int) {}

// Overheard runs the guard logic of §4.2.3 on one overheard control
// frame from the neighbor at sidx:
//
//  1. If the frame is a forward (PrevHop != Sender) and we guard the link
//     PrevHop->Sender: if we never heard PrevHop transmit this packet,
//     Sender fabricated it (V_f).
//  2. Remember that Sender transmitted this packet (the "heard" cache)
//     and clear any matching watch entry.
//  3. Arm forwarding expectations for the receivers we guard: the unicast
//     receiver of a REP, or every common neighbor for a flooded REQ. If an
//     expectation expires unforwarded, the watch buffer raises a drop (V_d).
//
// Each node the frame names is resolved once: the sender by the engine,
// PrevHop here for both the guard test and the heard check, and a REP's
// receiver for its guard test and its expectation.
func (d *liteworpDetector) Overheard(p *packet.Packet, sidx int32) {
	table := d.env.Table
	sender := p.Sender
	key := p.Key()

	// Fabrication check for forwarded packets on links we guard: sender
	// claims PrevHop gave it this packet, but we watch that link and
	// never saw it (strict mode: from that hop; default: from anyone).
	// This must be evaluated against the heard facts *before* the current
	// transmission is recorded.
	if p.PrevHop != sender && d.fabricated(p.PrevHop, key) {
		d.buffer.AccuseFabrication(sender, key)
	}

	// Any overheard transmission of this packet by sender satisfies a
	// pending forwarding expectation on sender, and the heard record keeps
	// later flood copies from re-arming an expectation the node has
	// already met.
	d.buffer.RecordHeardIdx(sidx, key)

	// Do not arm forwarding expectations for packets transmitted by a
	// suspect: once this guard has heard any alert about the sender,
	// other neighbors may already have isolated it, and their refusal to
	// serve its traffic is compliance, not dropping.
	if d.env.Suspect(sidx) {
		return
	}

	if d.cfg.DisableDropDetection {
		return
	}

	// Arm expectations on the nodes that must forward next. The host
	// guards sender->a for every direct neighbor a other than sender:
	// sender is one too, revoked or not.
	switch p.Type {
	case packet.TypeRouteReply:
		a := p.Receiver
		if a == p.FinalDest || a == sender {
			return // destination consumes the REP; no link sender->sender
		}
		// A revoked receiver is isolated, and a stale one presumed
		// crashed: expecting a forward from either is futile.
		aidx, st, ok := table.Lookup(a)
		if !ok || st != neighbor.StatusActive {
			return
		}
		// The REP's route names a's next hop toward the source; if we
		// consider that next hop suspect or revoked, a may rightly
		// refuse to forward to it.
		if next, ok := repNextHop(p, a); ok {
			nidx, st, known := table.Lookup(next)
			if known && (st == neighbor.StatusRevoked || d.env.Suspect(nidx)) {
				return
			}
		}
		d.buffer.ExpectIdx(aidx, key)
	case packet.TypeRouteRequest:
		// Broadcast: every common neighbor of us and the sender should
		// rebroadcast exactly once (unless it is the flood's origin,
		// its destination, or already listed on the accumulated route).
		//
		// Every copy of the flood runs this loop, and on all but the
		// first most neighbors are already expected or heard: one probe
		// of the packet's record answers for every one of them before
		// the route scan. Both are pure, and an expectation armed in the
		// loop settles no other neighbor, so neither changes which
		// expectations are armed, nor their order.
		settled := d.buffer.SettledSet(key)
		nbrs := table.Neighbors()
		idxs := table.NeighborIdxs()
		for i, a := range nbrs {
			if a == sender || a == p.Origin || a == p.FinalDest {
				continue
			}
			if settled.Has(idxs[i]) || routeContains(p.Route, a) {
				continue
			}
			d.buffer.ExpectIdx(idxs[i], key)
		}
	}
}

// fabricated reports whether the host guards the link prev->sender of a
// forwarded packet and holds it a fabrication: it guards the link when
// prev is the host itself (a node guards its own outgoing links) or a
// direct neighbor, revoked or stale included. prev is resolved once for
// both questions; the host's own sends are under its own index, which its
// first OwnSend interns.
func (d *liteworpDetector) fabricated(prev field.NodeID, key packet.Key) bool {
	pidx, interned := d.env.Table.Index().Lookup(prev)
	if prev != d.env.Table.Self() && (!interned || d.env.Table.StatusAt(pidx) == 0) {
		return false // not a link we guard
	}
	// Hearing prev send it implies hearing anyone send it, and that one
	// question answers most default-mode checks too.
	if interned && d.buffer.HeardIdx(pidx, key) {
		return false
	}
	if !d.cfg.StrictFabricationCheck && d.buffer.HeardAny(key) {
		return false
	}
	// Negative evidence ("I never heard this packet") is unreliable
	// while the guard's own radio is reporting corrupted receptions:
	// the missing transmission may be among the frames it failed to
	// decode. Real wormhole re-injections are caught in quiet
	// neighborhoods, where the tunnel wins the race precisely because
	// nothing else is on the air yet.
	return !d.buffer.RecentInterference(2 * d.buffer.Config().Timeout)
}

// repNextHop returns the node a REP must be forwarded to by node a: the
// route entry preceding a (REPs travel destination -> source).
func repNextHop(p *packet.Packet, a field.NodeID) (field.NodeID, bool) {
	for i, x := range p.Route {
		if x == a {
			if i == 0 {
				return 0, false
			}
			return p.Route[i-1], true
		}
	}
	return 0, false
}

func routeContains(route []field.NodeID, id field.NodeID) bool {
	for _, x := range route {
		if x == id {
			return true
		}
	}
	return false
}
