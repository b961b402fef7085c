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
//   - Frames cross the medium as encoded bytes (Marshal on send, Unmarshal
//     on delivery), so only wire-representable information propagates and
//     transmission delays reflect genuine frame sizes.
//   - Each transmission is decoded once and delivered by one kernel event
//     that hands every receiver the same read-only frame (see delivery).
package medium

import (
	"errors"
	"fmt"
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

// Receiver is a station's frame-delivery callback. The frame is decoded
// once per transmission and the same *packet.Packet goes to every station
// that receives it, so it is shared and read-only: a receiver must Clone it
// before mutating it or keeping it beyond the call. The sender's own packet
// is never handed to a receiver.
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
// neighbors.")
type LinearCollisionModel struct {
	Field *field.Field
	Pc0   float64 // collision probability at the reference degree
	NB0   float64 // reference neighbor count
	Max   float64 // cap (defaults to 0.9 when zero)

	degrees map[field.NodeID]int // precomputed at construction; topology is static
}

// NewLinearCollision returns the paper-parameterized model over f, with the
// per-node degree cache precomputed up front so the hot LossProb path is a
// single map read.
func NewLinearCollision(f *field.Field, pc0, nb0, max float64) *LinearCollisionModel {
	if max <= 0 {
		max = 0.9
	}
	m := &LinearCollisionModel{Field: f, Pc0: pc0, NB0: nb0, Max: max}
	if f != nil {
		m.degrees = make(map[field.NodeID]int, f.Len())
		for _, id := range f.IDs() {
			m.degrees[id] = f.Degree(id)
		}
	}
	return m
}

// LossProb implements LossModel.
func (m *LinearCollisionModel) LossProb(_, rx field.NodeID) float64 {
	if m.Field == nil || m.Pc0 <= 0 || m.NB0 <= 0 {
		return 0
	}
	deg, ok := m.degrees[rx]
	if !ok {
		// Fallback for struct-literal construction and nodes placed after
		// the model was built.
		deg = m.Field.Degree(rx)
		if m.degrees == nil {
			m.degrees = make(map[field.NodeID]int, m.Field.Len())
		}
		m.degrees[rx] = deg
	}
	p := m.Pc0 * float64(deg) / m.NB0
	if p > m.Max {
		p = m.Max
	}
	if p < 0 {
		p = 0
	}
	return p
}

// Config parameterizes the medium.
type Config struct {
	// BandwidthBps is the channel bandwidth in bits per second
	// (paper Table 2: 40 kbps).
	BandwidthBps float64
	// PropagationDelay is added to every delivery (speed-of-light plus
	// receive processing; effectively negligible at sensor scales).
	PropagationDelay time.Duration
	// Loss decides per-reception losses. Nil means NoLoss.
	Loss LossModel
	// Airtime switches to the physical contention model: collisions
	// emerge from frame airtime overlap at each receiver (see
	// AirtimeConfig). The LossModel then acts as a residual noise floor.
	Airtime AirtimeConfig
}

// DefaultConfig matches the paper's Table 2 channel.
func DefaultConfig() Config {
	return Config{
		BandwidthBps:     40_000,
		PropagationDelay: 5 * time.Microsecond,
	}
}

// Stats counts medium activity.
type Stats struct {
	// BytesByType breaks down on-air bytes per packet type, the basis of
	// the empirical bandwidth-overhead accounting (discovery and alert
	// traffic vs routing control vs data).
	BytesByType map[packet.Type]uint64

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
}

// DeliveryFault is an injected per-reception fault: return true to destroy
// the reception of p at rx. It runs after the station/link checks and before
// the probabilistic loss draw, and is the hook behind targeted fault events
// such as dropped alerts.
type DeliveryFault func(tx, rx field.NodeID, p *packet.Packet) bool

type tunnel struct {
	delay time.Duration
}

// Medium is the shared radio channel plus any attacker tunnels.
type Medium struct {
	kernel    *sim.Kernel
	topo      *field.Field
	cfg       Config
	airCfg    AirtimeConfig
	air       *airState
	stations  map[field.NodeID]*station
	tunnels   map[[2]field.NodeID]tunnel
	downLinks map[[2]field.NodeID]bool
	fault     DeliveryFault
	stats     Stats
	trace     TraceFunc
	corrupted func(field.NodeID)
	// wireBuf is the reusable encoding buffer: each transmission marshals
	// into it and decodes out of it before returning, so no frame bytes
	// outlive the transmit call and steady-state encoding allocates
	// nothing (Unmarshal copies every variable-length section).
	wireBuf []byte
	// freeDeliveries recycles fired delivery batches.
	freeDeliveries []*delivery
}

// New creates a medium over the given topology.
func New(k *sim.Kernel, topo *field.Field, cfg Config) *Medium {
	if cfg.BandwidthBps <= 0 {
		cfg.BandwidthBps = DefaultConfig().BandwidthBps
	}
	if cfg.Loss == nil {
		cfg.Loss = NoLoss{}
	}
	return &Medium{
		kernel:    k,
		topo:      topo,
		cfg:       cfg,
		airCfg:    cfg.Airtime,
		air:       newAirState(),
		stations:  make(map[field.NodeID]*station),
		tunnels:   make(map[[2]field.NodeID]tunnel),
		downLinks: make(map[[2]field.NodeID]bool),
	}
}

// SetDown powers a station off (crash) or back on (reboot). A down station
// transmits nothing, receives nothing — including frames already in flight —
// and tunnels ending at it go silent. The station stays attached, so a
// reboot is just SetDown(id, false). Unknown stations are an error.
func (m *Medium) SetDown(id field.NodeID, down bool) error {
	st, ok := m.stations[id]
	if !ok {
		return fmt.Errorf("medium: node %d not attached", id)
	}
	st.down = down
	return nil
}

// IsDown reports whether the station is attached and powered off.
func (m *Medium) IsDown(id field.NodeID) bool {
	st, ok := m.stations[id]
	return ok && st.down
}

// SetLinkDown flaps the bidirectional radio link between a and b down or
// back up. While down, neither endpoint hears the other (transmissions still
// reach every other station in range). Flapping a link between unattached
// nodes is an error.
func (m *Medium) SetLinkDown(a, b field.NodeID, down bool) error {
	if _, ok := m.stations[a]; !ok {
		return fmt.Errorf("medium: link endpoint %d not attached", a)
	}
	if _, ok := m.stations[b]; !ok {
		return fmt.Errorf("medium: link endpoint %d not attached", b)
	}
	if a == b {
		return fmt.Errorf("medium: link endpoints must differ (%d)", a)
	}
	if down {
		m.downLinks[[2]field.NodeID{a, b}] = true
		m.downLinks[[2]field.NodeID{b, a}] = true
	} else {
		delete(m.downLinks, [2]field.NodeID{a, b})
		delete(m.downLinks, [2]field.NodeID{b, a})
	}
	return nil
}

// LinkDown reports whether the a<->b link is currently flapped down.
func (m *Medium) LinkDown(a, b field.NodeID) bool {
	return m.downLinks[[2]field.NodeID{a, b}]
}

// SetDeliveryFault installs an injected per-reception fault (nil disables).
func (m *Medium) SetDeliveryFault(fn DeliveryFault) { m.fault = fn }

// reachable reports whether a frame from tx can currently reach rx's radio:
// rx attached and powered, and the tx-rx link not flapped down.
func (m *Medium) reachable(tx, rx field.NodeID) bool {
	st, ok := m.stations[rx]
	if !ok || st.down {
		return false
	}
	return !m.downLinks[[2]field.NodeID{tx, rx}]
}

// unicastResult translates the delivery fate of an addressed frame into the
// sender-visible MAC signal: ErrLinkDown when the addressed receiver is
// attached but unreachable (down or flapped away). Receivers that were never
// attached or are simply out of range stay silent, as before.
func (m *Medium) unicastResult(tx field.NodeID, p *packet.Packet) error {
	if p.Receiver == packet.Broadcast {
		return nil
	}
	if _, ok := m.stations[p.Receiver]; !ok {
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

// SetCorruptionNotify installs a callback invoked whenever a station's
// reception is destroyed by airtime overlap — the radio-level "CRC failed"
// signal real hardware exposes. Guards use it to know their negative
// evidence (I heard nothing) is unreliable right now.
func (m *Medium) SetCorruptionNotify(fn func(rx field.NodeID)) { m.corrupted = fn }

// SetAirtime reconfigures the contention model at runtime. Scenarios use
// this to run neighbor discovery over a clean channel and enable physical
// contention with the operational traffic.
func (m *Medium) SetAirtime(cfg AirtimeConfig) { m.airCfg = cfg }

// SetLoss replaces the loss model at runtime. Scenarios use this to run the
// one-time neighbor-discovery phase over a clean channel (the paper assumes
// discovery completes correctly within T_ND) and then enable collision
// losses for the operational phase. Nil restores a lossless channel.
func (m *Medium) SetLoss(l LossModel) {
	if l == nil {
		l = NoLoss{}
	}
	m.cfg.Loss = l
}

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats {
	out := m.stats
	out.BytesByType = make(map[packet.Type]uint64, len(m.stats.BytesByType))
	for k, v := range m.stats.BytesByType {
		out.BytesByType[k] = v
	}
	return out
}

func (m *Medium) countBytes(t packet.Type, n int) {
	if m.stats.BytesByType == nil {
		m.stats.BytesByType = make(map[packet.Type]uint64, 8)
	}
	m.stats.BytesByType[t] += uint64(n)
}

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
	if _, dup := m.stations[id]; dup {
		return fmt.Errorf("medium: node %d already attached", id)
	}
	m.stations[id] = &station{id: id, recv: recv}
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

// BroadcastHighPower transmits with the node's range scaled by factor —
// the capability behind the high-power-transmission wormhole mode.
func (m *Medium) BroadcastHighPower(p *packet.Packet, factor float64) error {
	if factor < 1 {
		factor = 1
	}
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
	st, ok := m.stations[tx]
	if !ok {
		return fmt.Errorf("medium: sender %d not attached", tx)
	}
	if st.down {
		return ErrSenderDown
	}
	if m.airCfg.Enabled {
		return m.transmitAirtime(tx, p, rangeFactor, 0)
	}
	// Marshal once into the reusable wire buffer and decode once: every
	// receiver shares the one decoded frame. Only wire-representable
	// information propagates — receivers see what the bytes carry.
	wire, err := p.MarshalAppend(m.wireBuf[:0])
	if err != nil {
		return fmt.Errorf("medium: encode from %d: %w", tx, err)
	}
	m.wireBuf = wire
	decoded, err := packet.Unmarshal(wire)
	if err != nil {
		return fmt.Errorf("medium: decode roundtrip from %d: %w", tx, err)
	}
	m.stats.Transmissions++
	m.stats.BytesOnAir += uint64(len(wire))
	m.countBytes(p.Type, len(wire))
	arrival := m.TxDelay(len(wire)) + m.cfg.PropagationDelay

	// Deterministic receiver order: ascending IDs from the topology.
	var d *delivery
	for _, rx := range m.topo.NeighborsScaled(tx, rangeFactor) {
		st, ok := m.stations[rx]
		if !ok {
			continue
		}
		if !m.reachable(tx, rx) {
			m.stats.DownSuppressed++
			continue
		}
		if m.fault != nil && m.fault(tx, rx, p) {
			m.stats.FaultDrops++
			if m.trace != nil {
				m.trace(TraceEvent{At: m.kernel.Now(), From: tx, To: rx, Packet: p, Lost: true})
			}
			continue
		}
		lost := m.kernel.Rand().Float64() < m.cfg.Loss.LossProb(tx, rx)
		if m.trace != nil {
			m.trace(TraceEvent{At: m.kernel.Now(), From: tx, To: rx, Packet: p, Lost: lost})
		}
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
			d = m.newDelivery(decoded)
		}
		d.rx = append(d.rx, st)
	}
	if d != nil {
		m.kernel.Post(arrival, d.fire)
	}
	return m.unicastResult(tx, p)
}

// AddTunnel creates a bidirectional out-of-band channel between two
// colluding nodes with the given one-way delay. Zero delay models the
// paper's simulated out-of-band channel ("the compromised nodes deliver the
// packets instantaneously to their colluding parties"); a positive delay
// models packet encapsulation over an existing multihop path.
func (m *Medium) AddTunnel(a, b field.NodeID, delay time.Duration) error {
	if _, ok := m.stations[a]; !ok {
		return fmt.Errorf("medium: tunnel endpoint %d not attached", a)
	}
	if _, ok := m.stations[b]; !ok {
		return fmt.Errorf("medium: tunnel endpoint %d not attached", b)
	}
	if a == b {
		return fmt.Errorf("medium: tunnel endpoints must differ (%d)", a)
	}
	m.tunnels[[2]field.NodeID{a, b}] = tunnel{delay: delay}
	m.tunnels[[2]field.NodeID{b, a}] = tunnel{delay: delay}
	return nil
}

// HasTunnel reports whether a tunnel exists from a to b.
func (m *Medium) HasTunnel(a, b field.NodeID) bool {
	_, ok := m.tunnels[[2]field.NodeID{a, b}]
	return ok
}

// TunnelSend moves a frame through an out-of-band tunnel. Only the far
// endpoint receives it — nothing is overheard and no loss applies, which is
// exactly why the tunnel itself is invisible to local monitoring and must
// be caught at its endpoints.
func (m *Medium) TunnelSend(from, to field.NodeID, p *packet.Packet) error {
	tun, ok := m.tunnels[[2]field.NodeID{from, to}]
	if !ok {
		return fmt.Errorf("medium: no tunnel %d->%d", from, to)
	}
	if src, ok := m.stations[from]; ok && src.down {
		return ErrSenderDown
	}
	st := m.stations[to]
	wire, err := p.MarshalAppend(m.wireBuf[:0])
	if err != nil {
		return fmt.Errorf("medium: tunnel encode %d->%d: %w", from, to, err)
	}
	m.wireBuf = wire
	decoded, err := packet.Unmarshal(wire)
	if err != nil {
		return fmt.Errorf("medium: tunnel decode %d->%d: %w", from, to, err)
	}
	m.stats.TunnelMessages++
	if m.trace != nil {
		m.trace(TraceEvent{At: m.kernel.Now(), From: from, To: to, Packet: p, Tunnel: true})
	}
	d := m.newDelivery(decoded)
	d.tunnel = true
	d.rx = append(d.rx, st)
	m.kernel.Post(tun.delay, d.fire)
	return nil
}
