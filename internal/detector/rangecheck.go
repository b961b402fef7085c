package detector

import (
	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/watch"
)

// The position-plausibility strategy's constants.
const (
	// rangeSlack scales the radio range before a claimed link is declared
	// physically impossible, absorbing position-estimate jitter at the
	// range boundary.
	rangeSlack = 1.05
	// rangeThreshold is how many impossible-link claims from the same
	// node cross into revocation: a single violation could be a
	// corrupted route field; a repeat is a tunnel. Tunnel exits violate
	// once per re-injected flood, so the threshold clears within two
	// route discoveries.
	rangeThreshold = 2
)

// rangeDetector is the GPS/distance plausibility check (in the spirit of
// the range-violation tests surveyed in arXiv 0906.1245): assuming nodes
// know the deployment coordinates, any link a transmission *claims* must
// be physically realizable within radio range. Two claims are checked on
// every overheard control frame:
//
//   - the forwarding claim: PrevHop handed Sender this packet, so
//     PrevHop–Sender must be a possible link (catches tunnel exits that
//     name their remote colluder as previous hop);
//   - the route claims: the accumulated route pairs adjacent to Sender's
//     own entry are links Sender vouches for by transmitting (catches
//     the out-of-band and encapsulation exits, whose appended route tail
//     contains the impossible entrance–exit hop even when the previous
//     hop is forged to a plausible local neighbor).
//
// Only pairs the sender itself is an endpoint of are judged, so honest
// nodes rebroadcasting a wormhole-tainted flood are never accused for the
// impossible pair buried upstream in the route.
//
// The strategy draws no RNG and arms no timers.
type rangeDetector struct {
	*scoreboard
}

func newRangeDetector(env Env) Detector {
	return &rangeDetector{&scoreboard{env: env, threshold: rangeThreshold}}
}

// Name returns KindRange.
func (d *rangeDetector) Name() string { return KindRange }

// OwnSend is ignored: the host trusts its own transmissions.
func (d *rangeDetector) OwnSend(*packet.Packet) {}

// Announcement is ignored: discovery announcements are single-hop and
// cannot claim out-of-range links (the radio delivered them).
func (d *rangeDetector) Announcement(field.NodeID, int) {}

// Interference is ignored: position checks need no negative evidence.
func (d *rangeDetector) Interference() {}

// Overheard judges every link claim the sender is an endpoint of.
func (d *rangeDetector) Overheard(p *packet.Packet, _ int32) {
	sender := p.Sender
	if p.PrevHop != sender && !d.plausible(p.PrevHop, sender) {
		d.accuse(sender, watch.ReasonRange, p.Key())
		return
	}
	for i, x := range p.Route {
		if x != sender {
			continue
		}
		if i > 0 && !d.plausible(p.Route[i-1], sender) {
			d.accuse(sender, watch.ReasonRange, p.Key())
			return
		}
		if i+1 < len(p.Route) && !d.plausible(sender, p.Route[i+1]) {
			d.accuse(sender, watch.ReasonRange, p.Key())
			return
		}
	}
}

// plausible reports whether a–b could be a radio link. Unknown positions
// give the benefit of the doubt (no accusation without evidence).
func (d *rangeDetector) plausible(a, b field.NodeID) bool {
	if _, ok := d.env.Positions.Position(a); !ok {
		return true
	}
	if _, ok := d.env.Positions.Position(b); !ok {
		return true
	}
	return d.env.Positions.InRangeScaled(a, b, rangeSlack)
}
