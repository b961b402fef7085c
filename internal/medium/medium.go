// Package medium simulates the shared wireless channel: broadcast delivery
// to every station in communication range, transmission delay derived from
// frame size and channel bandwidth, probabilistic collision losses, and the
// out-of-band tunnels wormhole attackers use.
//
// Design notes:
//
//   - Every transmission is physically a broadcast. A unicast is just a
//     broadcast whose Receiver field names one node; all other stations in
//     range still overhear the frame (subject to loss). Promiscuous
//     overhearing is what makes LITEWORP's local monitoring possible.
//   - Losses follow the paper's own analytical channel model: "each packet
//     collides on the channel with a constant and independent probability
//     P_C", with P_C growing linearly in the receiver's neighbor count.
//     Modeling the loss process identically in simulation and analysis is
//     what lets Fig. 10 compare the two directly.
//   - A frame handed to Broadcast, BroadcastHighPower, BroadcastFrom or
//     TunnelSend must not be changed by its sender again. Every field of
//     packet.Packet is on the wire, so the frame needs no encode/decode
//     round trip to carry only what the bytes would; airtime comes from
//     its encoded size, and a frame the codec would reject
//     (packet.ErrOversize) is refused.
//   - Each transmission is delivered by one kernel event that hands every
//     receiver the sender's frame, shared and read-only (see delivery).
//   - The medium owns the scenario's frame pool (Frames), from which
//     routing takes the frames it builds per hop. A pooled frame lives
//     while someone holds a reference: its sender until the hand-over
//     returns, each delivery batch until it has fired, and each airtime
//     deferral and ARQ retransmission until it has run. A relay's
//     BroadcastFrom of a received frame is one more batch, so it needs no
//     reference of its own.
package medium

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// Fault-injection errors surfaced to senders. ErrLinkDown is the simulator's
// stand-in for a MAC-level ACK timeout: the addressed receiver of a unicast
// frame is powered off (crashed) or the link to it is flapped down, so no
// acknowledgment can come back. Broadcast frames never report it — there is
// nobody specific to miss. ErrSenderDown rejects transmissions from a
// crashed station outright.
var (
	ErrLinkDown   = errors.New("medium: unicast receiver unreachable (no ack)")
	ErrSenderDown = errors.New("medium: sender is down")
)

// Receiver is a station's frame-delivery callback. The *packet.Packet is
// the one its sender handed to the medium, and it goes to every station
// that receives the transmission, so it is shared and read-only. It is
// valid for the call only: the delivery batch holds the frame's reference
// until every receiver has returned, and a pooled frame may then be
// reused at once. A receiver must Clone it before mutating it or keeping
// it beyond the call; passing it to BroadcastFrom is allowed, as the new
// transmission takes its own reference.
type Receiver func(*packet.Packet)

// LossModel yields the probability that a given reception fails.
type LossModel interface {
	// LossProb returns the probability in [0,1] that a frame sent by tx
	// is lost at rx.
	LossProb(tx, rx field.NodeID) float64
}

// NoLoss is a LossModel with a perfect channel.
type NoLoss struct{}

// LossProb implements LossModel.
func (NoLoss) LossProb(_, _ field.NodeID) float64 { return 0 }

// FixedLoss loses every reception with the same probability P.
type FixedLoss struct{ P float64 }

// LossProb implements LossModel.
func (l FixedLoss) LossProb(_, _ field.NodeID) float64 { return l.P }

// LinearCollisionModel implements the paper's collision assumption:
// P_C = Pc0 at NB0 neighbors, increasing linearly with the receiver's
// neighbor count and capped at Max. (Paper §5.1: "P_C = 0.05 at N_B = 3.
// Thereafter, P_C is assumed to increase linearly with the number of
// neighbors.") The degree is read from the field on every reception, so a
// node placed later (a dynamic join) counts at once.
type LinearCollisionModel struct {
	Field *field.Field
	Pc0   float64 // collision probability at the reference degree, > 0
	NB0   float64 // reference neighbor count, > 0
	Max   float64 // cap, in (0, 1]
}

// NewLinearCollision returns the paper-parameterized model over f.
func NewLinearCollision(f *field.Field, pc0, nb0, max float64) *LinearCollisionModel {
	return &LinearCollisionModel{Field: f, Pc0: pc0, NB0: nb0, Max: max}
}

// LossProb implements LossModel.
func (m *LinearCollisionModel) LossProb(_, rx field.NodeID) float64 {
	return min(m.Pc0*float64(m.Field.Degree(rx))/m.NB0, m.Max)
}

// propagationDelay is added to every delivery (speed-of-light plus
// receive processing; effectively negligible at sensor scales).
const propagationDelay = 5 * time.Microsecond

// Config parameterizes the medium.
type Config struct {
	// BandwidthBps is the channel bandwidth in bits per second
	// (paper Table 2: 40 kbps).
	BandwidthBps float64
}

// Stats counts medium activity.
type Stats struct {
	// BytesByType breaks down on-air bytes per packet type, the basis of
	// the empirical bandwidth-overhead accounting (discovery and alert
	// traffic vs routing control vs data).
	BytesByType [packet.NumTypes]uint64

	Transmissions      uint64 // frames put on the air
	Deliveries         uint64 // successful receptions (incl. overhears)
	Losses             uint64 // receptions destroyed by collision/noise
	TunnelMessages     uint64 // frames moved through out-of-band tunnels
	BytesOnAir         uint64 // total bytes transmitted
	AirtimeCollisions  uint64 // receptions destroyed by airtime overlap
	CarrierDeferrals   uint64 // carrier-sense backoffs
	CarrierDrops       uint64 // frames abandoned after max CSMA attempts
	ARQRetransmissions uint64 // MAC-level unicast retransmissions
	FaultDrops         uint64 // receptions destroyed by an injected delivery fault
	DownSuppressed     uint64 // receptions skipped because station/link was down
	UnicastNoAck       uint64 // unicasts whose addressed receiver was unreachable
}

// TraceFunc observes every delivery attempt, for debugging and examples.
type TraceFunc func(ev TraceEvent)

// TraceEvent describes one reception attempt.
type TraceEvent struct {
	At       time.Duration
	From, To field.NodeID
	Packet   *packet.Packet
	Lost     bool
	Tunnel   bool
}

type station struct {
	id   field.NodeID
	recv Receiver
	// down marks a crashed station: it neither transmits nor receives (and
	// frames already in flight toward it evaporate at delivery time), but
	// it stays registered so tunnels and a later reboot keep working.
	down bool
	// cut lists, ascending, the stations whose link to this one is
	// flapped down.
	cut []field.NodeID
	// tunnels lists this station's out-of-band links, one per colluding
	// peer, in the order they were added.
	tunnels []tunnel
	// air holds the active (and recently expired) reception intervals at
	// this station, overheard frames included (airtime model only).
	air []*airInterval
}

// stationSlots holds the attached stations indexed by node ID minus the
// lowest ID attached: node IDs are dense (the field places FirstID+i), so
// finding a station on the per-transmission path is an index, not a hash.
type stationSlots struct {
	first field.NodeID
	s     []*station
}

// get returns the station attached as id, or nil.
func (n *stationSlots) get(id field.NodeID) *station {
	if i := uint64(id - n.first); i < uint64(len(n.s)) {
		return n.s[i]
	}
	return nil
}

// put stores st as id's station, growing the slots to hold it.
func (n *stationSlots) put(id field.NodeID, st *station) {
	if len(n.s) == 0 {
		n.first = id
	}
	if id < n.first {
		n.s = append(make([]*station, n.first-id), n.s...)
		n.first = id
	}
	if i := int(id - n.first); i >= len(n.s) {
		n.s = append(n.s, make([]*station, i+1-len(n.s))...)
	}
	n.s[id-n.first] = st
}

// DeliveryFault is an injected per-reception fault: return true to destroy
// the reception of p at rx. It runs after the station/link checks and before
// the probabilistic loss draw, and is the hook behind targeted fault events
// such as dropped alerts.
type DeliveryFault func(tx, rx field.NodeID, p *packet.Packet) bool

// tunnel is one end of an out-of-band link: the far endpoint and the
// one-way delay.
type tunnel struct {
	peer  *station
	delay time.Duration
}

// tunnelTo returns the station's tunnel to id, or nil (also for a nil
// station).
func (st *station) tunnelTo(id field.NodeID) *tunnel {
	if st == nil {
		return nil
	}
	for i := range st.tunnels {
		if st.tunnels[i].peer.id == id {
			return &st.tunnels[i]
		}
	}
	return nil
}

// setTunnel adds a tunnel to peer, or sets the delay of the one there is.
func (st *station) setTunnel(peer *station, delay time.Duration) {
	if t := st.tunnelTo(peer.id); t != nil {
		t.delay = delay
		return
	}
	st.tunnels = append(st.tunnels, tunnel{peer: peer, delay: delay})
}

// Medium is the shared radio channel plus any attacker tunnels.
type Medium struct {
	kernel    *sim.Kernel
	topo      *field.Field
	cfg       Config
	loss      LossModel // per-reception losses; NoLoss until SetLoss
	airtime   bool      // the contention model is on (see EnableAirtime)
	stations  stationSlots
	fault     DeliveryFault
	stats     Stats
	trace     TraceFunc
	corrupted func(field.NodeID)
	// frames is the scenario's frame pool (see Frames).
	frames packet.Pool
	// freeDeliveries recycles fired delivery batches.
	freeDeliveries []*delivery
}

// New creates a medium over the given topology.
func New(k *sim.Kernel, topo *field.Field, cfg Config) *Medium {
	return &Medium{
		kernel: k,
		topo:   topo,
		cfg:    cfg,
		loss:   NoLoss{},
	}
}

// Frames returns the medium's frame pool. Routers built for this medium
// take their per-hop frames from it, so a frame released by the last
// delivery batch is the next forward's frame.
func (m *Medium) Frames() *packet.Pool { return &m.frames }

// SetDown powers a station off (crash) or back on (reboot). A down station
// transmits nothing, receives nothing — including frames already in flight —
// and tunnels ending at it go silent. The station stays attached, so a
// reboot is just SetDown(id, false). Unknown stations are an error.
func (m *Medium) SetDown(id field.NodeID, down bool) error {
	st := m.stations.get(id)
	if st == nil {
		return fmt.Errorf("medium: node %d not attached", id)
	}
	st.down = down
	return nil
}

// IsDown reports whether the station is attached and powered off.
func (m *Medium) IsDown(id field.NodeID) bool {
	st := m.stations.get(id)
	return st != nil && st.down
}

// SetLinkDown flaps the bidirectional radio link between a and b down or
// back up. While down, neither endpoint hears the other (transmissions still
// reach every other station in range). Flapping a link between unattached
// nodes is an error.
func (m *Medium) SetLinkDown(a, b field.NodeID, down bool) error {
	sa, sb := m.stations.get(a), m.stations.get(b)
	if sa == nil {
		return fmt.Errorf("medium: link endpoint %d not attached", a)
	}
	if sb == nil {
		return fmt.Errorf("medium: link endpoint %d not attached", b)
	}
	if a == b {
		return fmt.Errorf("medium: link endpoints must differ (%d)", a)
	}
	sa.cut = setCut(sa.cut, b, down)
	sb.cut = setCut(sb.cut, a, down)
	return nil
}

// setCut adds id to the ascending list cut, or removes it.
func setCut(cut []field.NodeID, id field.NodeID, down bool) []field.NodeID {
	i, found := slices.BinarySearch(cut, id)
	switch {
	case down && !found:
		return slices.Insert(cut, i, id)
	case !down && found:
		return slices.Delete(cut, i, i+1)
	}
	return cut
}

// LinkDown reports whether the a<->b link is currently flapped down.
func (m *Medium) LinkDown(a, b field.NodeID) bool {
	st := m.stations.get(a)
	if st == nil {
		return false
	}
	_, found := slices.BinarySearch(st.cut, b)
	return found
}

// SetDeliveryFault installs an injected per-reception fault (nil disables).
func (m *Medium) SetDeliveryFault(fn DeliveryFault) { m.fault = fn }

// reachable reports whether a frame from tx can currently reach rx's radio:
// rx attached and powered, and the tx-rx link not flapped down.
func (m *Medium) reachable(tx, rx field.NodeID) bool {
	st := m.stations.get(rx)
	if st == nil || st.down {
		return false
	}
	if len(st.cut) == 0 {
		return true
	}
	_, found := slices.BinarySearch(st.cut, tx)
	return !found
}

// unicastResult translates the delivery fate of an addressed frame into the
// sender-visible MAC signal: ErrLinkDown when the addressed receiver is
// attached but unreachable (down or flapped away). Receivers that were never
// attached or are simply out of range stay silent, as before.
func (m *Medium) unicastResult(tx field.NodeID, p *packet.Packet) error {
	if p.Receiver == packet.Broadcast {
		return nil
	}
	if m.stations.get(p.Receiver) == nil {
		return nil
	}
	if !m.reachable(tx, p.Receiver) {
		m.stats.UnicastNoAck++
		return ErrLinkDown
	}
	return nil
}

// SetTrace installs a delivery observer (nil disables tracing).
func (m *Medium) SetTrace(fn TraceFunc) { m.trace = fn }

// traceRx reports one reception attempt to the trace hook, if any.
func (m *Medium) traceRx(from, to field.NodeID, p *packet.Packet, lost, tunnel bool) {
	if m.trace != nil {
		//lint:pooled the caller holds a reference to p for the whole call, and a TraceFunc, like a Receiver, must Clone what it keeps
		m.trace(TraceEvent{At: m.kernel.Now(), From: from, To: to, Packet: p, Lost: lost, Tunnel: tunnel})
	}
}

// SetCorruptionNotify installs a callback invoked whenever a station's
// reception is destroyed by airtime overlap — the radio-level "CRC failed"
// signal real hardware exposes. Guards use it to know their negative
// evidence (I heard nothing) is unreliable right now.
func (m *Medium) SetCorruptionNotify(fn func(rx field.NodeID)) { m.corrupted = fn }

// EnableAirtime switches the medium from probabilistic losses to the
// physical contention model (see airtime.go): collisions emerge from frame
// airtime overlap at each receiver, transmitters sense the carrier, and
// unicasts are retransmitted by the MAC. The loss model then acts as a
// residual noise floor. Scenarios run neighbor discovery over a clean
// channel and enable contention with the operational traffic.
func (m *Medium) EnableAirtime() { m.airtime = true }

// SetLoss replaces the loss model at runtime. Scenarios use this to run the
// one-time neighbor-discovery phase over a clean channel (the paper assumes
// discovery completes correctly within T_ND) and then enable collision
// losses for the operational phase. Nil restores a lossless channel.
func (m *Medium) SetLoss(l LossModel) {
	if l == nil {
		l = NoLoss{}
	}
	m.loss = l
}

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// Topology returns the underlying field.
func (m *Medium) Topology() *field.Field { return m.topo }

// Attach registers a station's receive callback. The node must have a
// position in the topology.
func (m *Medium) Attach(id field.NodeID, recv Receiver) error {
	if _, ok := m.topo.Position(id); !ok {
		return fmt.Errorf("medium: node %d has no position", id)
	}
	if recv == nil {
		return fmt.Errorf("medium: node %d: nil receiver", id)
	}
	if m.stations.get(id) != nil {
		return fmt.Errorf("medium: node %d already attached", id)
	}
	m.stations.put(id, &station{id: id, recv: recv})
	return nil
}

// TxDelay returns the time a frame of the given size occupies the channel.
func (m *Medium) TxDelay(sizeBytes int) time.Duration {
	seconds := float64(sizeBytes*8) / m.cfg.BandwidthBps
	return time.Duration(seconds * float64(time.Second))
}

// Broadcast puts a frame on the air from p.Sender with normal power.
func (m *Medium) Broadcast(p *packet.Packet) error {
	return m.transmit(p.Sender, p, 1.0)
}

// BroadcastHighPower transmits with the node's range scaled by factor, at
// least 1 — the capability behind the high-power-transmission wormhole
// mode.
func (m *Medium) BroadcastHighPower(p *packet.Packet, factor float64) error {
	return m.transmit(p.Sender, p, factor)
}

// BroadcastFrom transmits frame p from station tx without touching the
// frame — p.Sender may name a different node. This is the physical replay
// capability behind the packet-relay wormhole mode: the relay retransmits a
// victim's frame verbatim so receivers believe the victim itself is in
// range.
func (m *Medium) BroadcastFrom(tx field.NodeID, p *packet.Packet) error {
	return m.transmit(tx, p, 1.0)
}

func (m *Medium) transmit(tx field.NodeID, p *packet.Packet, rangeFactor float64) error {
	st := m.stations.get(tx)
	if st == nil {
		return fmt.Errorf("medium: sender %d not attached", tx)
	}
	if st.down {
		return ErrSenderDown
	}
	if err := p.CheckLimits(); err != nil {
		return fmt.Errorf("medium: frame from %d: %w", tx, err)
	}
	if m.airtime {
		return m.transmitAirtime(tx, p, rangeFactor, 0)
	}
	arrival := m.TxDelay(m.countTransmission(p)) + propagationDelay

	// Deterministic receiver order: ascending IDs from the topology.
	var d *delivery
	for _, rx := range m.topo.NeighborsScaled(tx, rangeFactor) {
		st := m.stations.get(rx)
		if st == nil {
			continue
		}
		if !m.reachable(tx, rx) {
			m.stats.DownSuppressed++
			continue
		}
		if m.fault != nil && m.fault(tx, rx, p) {
			m.stats.FaultDrops++
			m.traceRx(tx, rx, p, true, false)
			continue
		}
		lost := m.kernel.Rand().Float64() < m.loss.LossProb(tx, rx)
		m.traceRx(tx, rx, p, lost, false)
		if lost {
			m.stats.Losses++
			// A collision-model loss is a garbled frame: surface the
			// CRC-failure signal just as the airtime model does.
			if m.corrupted != nil {
				m.corrupted(rx)
			}
			continue
		}
		if d == nil {
			d = m.newDelivery(p)
		}
		d.rx = append(d.rx, st)
	}
	if d != nil {
		m.kernel.Post(arrival, d.fire)
	}
	return m.unicastResult(tx, p)
}

// countTransmission records p going on the air and returns its encoded
// size, which is what the frame occupies on the channel.
func (m *Medium) countTransmission(p *packet.Packet) int {
	size := p.Size()
	m.stats.Transmissions++
	m.stats.BytesOnAir += uint64(size)
	m.stats.BytesByType[p.Type] += uint64(size)
	return size
}

// AddTunnel creates a bidirectional out-of-band channel between two
// colluding nodes with the given one-way delay. Zero delay models the
// paper's simulated out-of-band channel ("the compromised nodes deliver the
// packets instantaneously to their colluding parties"); a positive delay
// models packet encapsulation over an existing multihop path.
func (m *Medium) AddTunnel(a, b field.NodeID, delay time.Duration) error {
	sa, sb := m.stations.get(a), m.stations.get(b)
	if sa == nil {
		return fmt.Errorf("medium: tunnel endpoint %d not attached", a)
	}
	if sb == nil {
		return fmt.Errorf("medium: tunnel endpoint %d not attached", b)
	}
	if a == b {
		return fmt.Errorf("medium: tunnel endpoints must differ (%d)", a)
	}
	sa.setTunnel(sb, delay)
	sb.setTunnel(sa, delay)
	return nil
}

// HasTunnel reports whether a tunnel exists from a to b.
func (m *Medium) HasTunnel(a, b field.NodeID) bool {
	return m.stations.get(a).tunnelTo(b) != nil
}

// TunnelSend moves a frame through an out-of-band tunnel. Only the far
// endpoint receives it — nothing is overheard and no loss applies, which is
// exactly why the tunnel itself is invisible to local monitoring and must
// be caught at its endpoints.
func (m *Medium) TunnelSend(from, to field.NodeID, p *packet.Packet) error {
	src := m.stations.get(from)
	tun := src.tunnelTo(to)
	if tun == nil {
		return fmt.Errorf("medium: no tunnel %d->%d", from, to)
	}
	if src.down {
		return ErrSenderDown
	}
	if err := p.CheckLimits(); err != nil {
		return fmt.Errorf("medium: tunnel frame %d->%d: %w", from, to, err)
	}
	m.stats.TunnelMessages++
	m.traceRx(from, to, p, false, true)
	d := m.newDelivery(p)
	d.tunnel = true
	d.rx = append(d.rx, tun.peer)
	m.kernel.Post(tun.delay, d.fire)
	return nil
}
