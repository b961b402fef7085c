// Package attack implements the paper's taxonomy of wormhole attack modes
// (§3, Table 1) as executable adversaries:
//
//   - packet encapsulation: colluders tunnel control traffic over an
//     existing multihop path; the hop count does not grow across the tunnel;
//   - out-of-band channel: the same, over a private zero-delay link;
//   - high-power transmission: a single attacker blasts the REQ far beyond
//     the legal range;
//   - packet relay: a single attacker physically replays frames verbatim so
//     two non-neighbors believe they are adjacent;
//   - protocol deviation (rushing): the attacker skips the REQ forwarding
//     backoff to win route races (not detectable by LITEWORP, as the paper
//     concedes).
//
// Once routes are captured, wormhole endpoints drop every data packet
// forwarded to them (§6: "the malicious nodes at each end of the wormhole
// drop all the packets forwarded to them"). Tunnel entrances also forward
// each REQ along the legal path, hiding the endpoint from drop detection,
// and REPs travel back through the tunnel so route establishment
// completes.
package attack

import (
	"liteworp/internal/field"
	"liteworp/internal/medium"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// Mode enumerates the wormhole attack modes of the paper's taxonomy.
type Mode uint8

// The five attack modes of §3.
const (
	ModeNone Mode = iota
	ModeEncapsulation
	ModeOutOfBand
	ModeHighPower
	ModeRelay
	ModeRushing
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeEncapsulation:
		return "packet-encapsulation"
	case ModeOutOfBand:
		return "out-of-band-channel"
	case ModeHighPower:
		return "high-power-transmission"
	case ModeRelay:
		return "packet-relay"
	case ModeRushing:
		return "protocol-deviation"
	default:
		return "unknown"
	}
}

// usesTunnel reports whether the mode moves packets between colluders.
func (m Mode) usesTunnel() bool {
	return m == ModeEncapsulation || m == ModeOutOfBand
}

// ModeInfo is a row of the paper's Table 1 plus LITEWORP's coverage claim.
type ModeInfo struct {
	Mode               Mode
	Name               string
	MinCompromised     int
	SpecialRequirement string
	HandledByLiteworp  bool
}

// Taxonomy returns Table 1: the attack modes, the minimum number of
// compromised nodes each needs, their special requirements, and whether
// LITEWORP handles them (all but protocol deviation).
func Taxonomy() []ModeInfo {
	return []ModeInfo{
		{ModeEncapsulation, "Packet encapsulation", 2, "None", true},
		{ModeOutOfBand, "Out-of-band channel", 2, "Out-of-band link", true},
		{ModeHighPower, "High power transmission", 1, "High energy source", true},
		{ModeRelay, "Packet relay", 1, "None", true},
		{ModeRushing, "Protocol deviations", 1, "None", false},
	}
}

// PrevHopStrategy is the tunnel exit's choice when rebroadcasting tunneled
// control traffic (§4.2.3): claim the colluder as previous hop (rejected by
// every receiver that knows the colluder is not a neighbor of the exit), or
// forge a legitimate neighbor (detected as fabrication by that link's
// guards).
type PrevHopStrategy uint8

// The two choices the paper analyzes.
const (
	StrategyClaimColluder PrevHopStrategy = iota + 1
	StrategyForgeNeighbor
)

// String names the strategy.
func (s PrevHopStrategy) String() string {
	switch s {
	case StrategyClaimColluder:
		return "claim-colluder"
	case StrategyForgeNeighbor:
		return "forge-neighbor"
	default:
		return "unknown"
	}
}

// Config parameterizes an attacker. What every attacker does is fixed
// (see the package comment): endpoints drop data, tunnel entrances also
// forward REQs along the legal path, and REPs return through the tunnel.
type Config struct {
	Mode Mode
	// PrevHop picks the tunnel exit strategy (DefaultParams picks
	// ForgeNeighbor, the harder case for LITEWORP).
	PrevHop PrevHopStrategy
	// DropProbability selects selective dropping ("they can then launch a
	// variety of attacks against the data traffic flowing on the
	// wormhole, such as selectively dropping the data packets"): each
	// eligible data packet is dropped with this probability. Zero means
	// drop everything (the default, and the paper's simulation behavior).
	DropProbability float64
	// HighPowerFactor scales the radio range in high-power mode; it is at
	// least 1 (Params.Validate checks it).
	HighPowerFactor float64
	// SmartRepCover is the paper's "smarter M2": besides tunneling a REP
	// to its colluder, the exit also transmits a copy over the real radio
	// so the guards' watch-buffer entries are satisfied and no drop
	// accusation accrues ("if M2 is smarter, it can forward another copy
	// of the REP through the regular slower route. In this case, Mal_C of
	// M2 is not incremented."). Fabrication detection still catches the
	// wormhole at the far end.
	SmartRepCover bool
}

// Stats counts attacker activity.
type Stats struct {
	ReqsTunneled       uint64
	RepsTunneled       uint64
	TunnelExits        uint64 // tunneled packets re-injected locally
	DataDropped        uint64
	Replays            uint64 // relay mode verbatim retransmissions
	HighPowerTxs       uint64
	RushedForward      uint64
	CoverTransmissions uint64 // smart-REP cover copies put on the air
}

// Attacker is the malicious behavior attached to a compromised node. It is
// an insider: it holds valid keys and participates in discovery, but
// deviates afterwards.
type Attacker struct {
	kernel    *sim.Kernel
	med       *medium.Medium
	self      field.NodeID
	colluders []field.NodeID
	cfg       Config

	tunneledReq map[packet.Key]bool
	replayed    map[replayKey]bool
	stats       Stats
	active      bool
}

type replayKey struct {
	sender field.NodeID
	key    packet.Key
}

// New creates an attacker for node self. colluders lists the other
// compromised nodes (tunnels to them must be wired on the medium by the
// scenario for tunnel modes).
func New(k *sim.Kernel, med *medium.Medium, self field.NodeID, colluders []field.NodeID, cfg Config) *Attacker {
	others := make([]field.NodeID, 0, len(colluders))
	for _, c := range colluders {
		if c != self {
			others = append(others, c)
		}
	}
	return &Attacker{
		kernel:      k,
		med:         med,
		self:        self,
		colluders:   others,
		cfg:         cfg,
		tunneledReq: make(map[packet.Key]bool),
		replayed:    make(map[replayKey]bool),
		active:      true,
	}
}

// SetActive toggles malicious behavior. Scenarios create attackers dormant
// and activate them at the attack start time (the paper launches the
// wormhole 50 s into the simulation); while dormant the node behaves like
// an honest insider.
func (a *Attacker) SetActive(v bool) { a.active = v }

// Active reports whether malicious behavior is enabled.
func (a *Attacker) Active() bool { return a.active }

// Mode returns the attacker's mode.
func (a *Attacker) Mode() Mode { return a.cfg.Mode }

// Stats returns a copy of the attacker counters.
func (a *Attacker) Stats() Stats { return a.stats }

// Colluders returns the other compromised nodes this attacker coordinates
// with.
func (a *Attacker) Colluders() []field.NodeID {
	out := make([]field.NodeID, len(a.colluders))
	copy(out, a.colluders)
	return out
}

// ShouldDropData reports whether the attacker black-holes this data packet
// instead of forwarding it. The paper's attackers target "the data traffic
// flowing on the wormhole": tunnel endpoints drop everything once a
// wormhole has formed; the single-node route-manipulation modes (high
// power, relay) drop only traffic on routes they captured through a
// phantom link, staying honest on routes they legitimately belong to; the
// rushing attacker black-holes whatever its protocol deviation won it.
func (a *Attacker) ShouldDropData(p *packet.Packet) bool {
	if !a.active || p.FinalDest == a.self {
		return false
	}
	switch a.cfg.Mode {
	case ModeEncapsulation, ModeOutOfBand:
		if a.stats.ReqsTunneled == 0 {
			// No wormhole formed yet; behave normally to stay stealthy.
			return false
		}
	case ModeHighPower, ModeRelay:
		if !a.onPhantomRoute(p) {
			return false
		}
	}
	if q := a.cfg.DropProbability; q > 0 && q < 1 {
		if a.kernel.Rand().Float64() >= q {
			return false // let this one through (selective dropping)
		}
	}
	a.stats.DataDropped++
	return true
}

// onPhantomRoute reports whether the packet's source route contains a hop
// adjacent to this attacker that is not a genuine radio link — the
// signature of a route captured by range extension or replay.
func (a *Attacker) onPhantomRoute(p *packet.Packet) bool {
	idx := indexOf(p.Route, a.self)
	if idx < 0 {
		return false
	}
	topo := a.med.Topology()
	if idx > 0 && !topo.InRange(p.Route[idx-1], a.self) {
		return true
	}
	if idx+1 < len(p.Route) && !topo.InRange(a.self, p.Route[idx+1]) {
		return true
	}
	return false
}

// forgedPrevHop picks the previous hop the tunnel exit announces.
func (a *Attacker) forgedPrevHop(entrance field.NodeID) field.NodeID {
	if a.cfg.PrevHop == StrategyClaimColluder {
		return entrance
	}
	nbs := a.med.Topology().Neighbors(a.self)
	if len(nbs) == 0 {
		return a.self
	}
	return nbs[a.kernel.Rand().Intn(len(nbs))]
}

// HandleControl gives the attacker first crack at a control packet the node
// received or overheard. It reports whether the attacker consumed it (the
// node must then not process it further).
func (a *Attacker) HandleControl(p *packet.Packet) bool {
	if !a.active {
		return false
	}
	switch a.cfg.Mode {
	case ModeEncapsulation, ModeOutOfBand:
		return a.handleControlTunnel(p)
	case ModeHighPower:
		return a.handleControlHighPower(p)
	case ModeRelay:
		return a.handleControlRelay(p)
	default:
		return false
	}
}

func (a *Attacker) handleControlTunnel(p *packet.Packet) bool {
	switch p.Type {
	case packet.TypeRouteRequest:
		key := p.Key()
		if a.tunneledReq[key] {
			return false
		}
		a.tunneledReq[key] = true
		inner := p.Clone()
		inner.Route = append(inner.Route, a.self)
		inner.HopCount++
		for _, c := range a.colluders {
			if !a.med.HasTunnel(a.self, c) {
				continue
			}
			a.stats.ReqsTunneled++
			wrapped, err := wrap(inner, a.self, c)
			if err != nil {
				continue
			}
			_ = a.med.TunnelSend(a.self, c, wrapped)
		}
		// Do not consume: the node also forwards along the legal path.
		return false
	case packet.TypeRouteReply:
		if p.Receiver != a.self || p.FinalDest == a.self {
			return false
		}
		// If the next hop toward the source is a colluder, carry the REP
		// through the tunnel (the real radio cannot reach it).
		idx := indexOf(p.Route, a.self)
		if idx <= 0 {
			return false
		}
		next := p.Route[idx-1]
		if !isIn(a.colluders, next) || !a.med.HasTunnel(a.self, next) {
			return false
		}
		inner := p.Clone()
		inner.PrevHop = p.Sender
		inner.Sender = a.self
		inner.Receiver = next
		inner.HopCount++
		a.stats.RepsTunneled++
		wrapped, err := wrap(inner, a.self, next)
		if err != nil {
			return true
		}
		_ = a.med.TunnelSend(a.self, next, wrapped)
		if a.cfg.SmartRepCover {
			// Cover transmission: satisfy the guards watching us by also
			// putting the forward on the air (the colluder is out of
			// radio range, so this transmission goes nowhere — but the
			// watch entries clear).
			a.stats.CoverTransmissions++
			_ = a.med.Broadcast(inner)
		}
		return true
	default:
		return false
	}
}

func (a *Attacker) handleControlHighPower(p *packet.Packet) bool {
	if p.Type != packet.TypeRouteRequest {
		return false
	}
	key := p.Key()
	if a.tunneledReq[key] {
		return true
	}
	a.tunneledReq[key] = true
	fwd := p.Clone()
	fwd.Route = append(fwd.Route, a.self)
	fwd.HopCount++
	fwd.PrevHop = p.Sender
	fwd.Sender = a.self
	fwd.Receiver = packet.Broadcast
	a.stats.HighPowerTxs++
	_ = a.med.BroadcastHighPower(fwd, a.cfg.HighPowerFactor)
	return true
}

func (a *Attacker) handleControlRelay(p *packet.Packet) bool {
	// Replay control frames verbatim so nodes out of the sender's range
	// believe the sender is their neighbor. The frame is untouched: the
	// relay is invisible in it.
	rk := replayKey{sender: p.Sender, key: p.Key()}
	if a.replayed[rk] || p.Sender == a.self {
		return false
	}
	a.replayed[rk] = true
	a.stats.Replays++
	_ = a.med.BroadcastFrom(a.self, p)
	return false // the relay also processes the packet normally
}

// HandleTunnel processes a frame that arrived over the out-of-band channel
// at a tunnel exit: unwrap and re-inject it into the local radio
// neighborhood with the configured previous-hop strategy.
func (a *Attacker) HandleTunnel(p *packet.Packet) {
	if !a.active || p.Type != packet.TypeTunnelEncap || p.Receiver != a.self {
		return
	}
	inner, err := unwrap(p)
	if err != nil {
		return
	}
	entrance := p.Sender
	a.stats.TunnelExits++
	switch inner.Type {
	case packet.TypeRouteRequest:
		a.tunneledReq[inner.Key()] = true // do not tunnel it back
		fwd := inner.Clone()
		fwd.Route = append(fwd.Route, a.self)
		fwd.HopCount++
		fwd.PrevHop = a.forgedPrevHop(entrance)
		fwd.Sender = a.self
		fwd.Receiver = packet.Broadcast
		_ = a.med.Broadcast(fwd)
	case packet.TypeRouteReply:
		// The inner REP is addressed to us; forward it toward the source
		// over the real radio.
		idx := indexOf(inner.Route, a.self)
		if idx <= 0 {
			return
		}
		fwd := inner.Clone()
		fwd.PrevHop = a.forgedPrevHop(entrance)
		fwd.Sender = a.self
		fwd.Receiver = inner.Route[idx-1]
		fwd.HopCount++
		_ = a.med.Broadcast(fwd)
	}
}

// wrap encapsulates a packet for tunnel transport.
func wrap(inner *packet.Packet, from, to field.NodeID) (*packet.Packet, error) {
	body, err := inner.Marshal()
	if err != nil {
		return nil, err
	}
	return &packet.Packet{
		Type:     packet.TypeTunnelEncap,
		Seq:      inner.Seq,
		Origin:   from,
		Sender:   from,
		PrevHop:  from,
		Receiver: to,
		Payload:  body,
	}, nil
}

// unwrap extracts the encapsulated packet.
func unwrap(p *packet.Packet) (*packet.Packet, error) {
	return packet.Unmarshal(p.Payload)
}

func indexOf(route []field.NodeID, id field.NodeID) int {
	for i, x := range route {
		if x == id {
			return i
		}
	}
	return -1
}

func isIn(list []field.NodeID, id field.NodeID) bool {
	return indexOf(list, id) >= 0
}
