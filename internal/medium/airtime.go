package medium

import (
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
)

// This file implements the medium's physical contention model, an
// alternative to the probabilistic LossModel: collisions emerge from
// actual frame airtime overlap at each receiver, the way they do in the
// paper's ns-2 substrate ("the simulation also accounts for losses due to
// natural collisions").
//
// Semantics:
//
//   - a frame occupies the air at every station in the transmitter's range
//     for [start, start+txDelay];
//   - a station that is covered by two temporally overlapping frames from
//     different transmitters decodes neither (no capture effect);
//   - with carrier sense enabled, a transmitter that can itself hear an
//     ongoing frame defers by a random backoff before trying again, up to
//     a bounded number of attempts (CSMA without RTS/CTS, as broadcast
//     traffic cannot use virtual carrier reservation).

// AirtimeConfig tunes the contention model.
type AirtimeConfig struct {
	// Enabled switches the medium from probabilistic losses to airtime
	// collisions. The LossModel still applies on top (so residual noise
	// can be modeled); set Loss to nil/NoLoss for pure contention.
	Enabled bool
	// CarrierSense makes transmitters defer while they hear an ongoing
	// frame.
	CarrierSense bool
	// MaxBackoff is the upper bound of the uniform deferral delay
	// (default: 4 frame times of a typical control packet).
	MaxBackoff time.Duration
	// MaxAttempts bounds carrier-sense retries before the frame is
	// dropped at the transmitter (default 8).
	MaxAttempts int
	// UnicastRetries is the MAC-level ARQ limit for addressed frames
	// (802.11 retransmits unlucky unicasts; broadcasts rely on flood
	// redundancy instead). Each retransmission is a full physical
	// broadcast, so overhearers get another chance too. Acknowledgments
	// are modeled as instantaneous and reliable. Default 3; negative
	// disables ARQ.
	UnicastRetries int
}

type airInterval struct {
	from       field.NodeID
	start, end time.Duration
	// corrupted marks the reception destroyed by an overlap.
	corrupted bool
}

type airState struct {
	// perStation holds the active (and recently expired) reception
	// intervals at each station, including overheard frames.
	perStation map[field.NodeID][]*airInterval
}

func newAirState() *airState {
	return &airState{perStation: make(map[field.NodeID][]*airInterval)}
}

// prune drops intervals that ended before now.
func (a *airState) prune(rx field.NodeID, now time.Duration) {
	ivs := a.perStation[rx]
	keep := ivs[:0]
	for _, iv := range ivs {
		if iv.end > now {
			keep = append(keep, iv)
		}
	}
	a.perStation[rx] = keep
}

// add registers a reception interval at rx and returns it, marking it and
// any overlapping interval from a different transmitter as corrupted.
func (a *airState) add(rx, from field.NodeID, start, end time.Duration) *airInterval {
	a.prune(rx, start)
	iv := &airInterval{from: from, start: start, end: end}
	for _, other := range a.perStation[rx] {
		if other.from == from {
			continue
		}
		if other.start < end && start < other.end {
			other.corrupted = true
			iv.corrupted = true
		}
	}
	a.perStation[rx] = append(a.perStation[rx], iv)
	return iv
}

// busy reports whether station id currently hears an ongoing frame.
func (a *airState) busy(id field.NodeID, now time.Duration) bool {
	a.prune(id, now)
	for _, iv := range a.perStation[id] {
		if iv.start <= now && now < iv.end {
			return true
		}
	}
	return false
}

// transmitAirtime carries a frame under the contention model.
func (m *Medium) transmitAirtime(tx field.NodeID, p *packet.Packet, rangeFactor float64, attempt int) error {
	if err := m.transmitAirtimeARQ(tx, p, rangeFactor, attempt, 0); err != nil {
		return err
	}
	// Surface the MAC no-ack signal for unicasts whose addressed receiver
	// cannot possibly acknowledge (down station or flapped link) — ARQ
	// retries would be futile.
	return m.unicastResult(tx, p)
}

func (m *Medium) transmitAirtimeARQ(tx field.NodeID, p *packet.Packet, rangeFactor float64, attempt, arq int) error {
	if st, ok := m.stations[tx]; !ok || st.down {
		// The transmitter crashed between a carrier-sense deferral or ARQ
		// backoff and this retry.
		return nil
	}
	cfg := m.airCfg
	now := m.kernel.Now()
	if cfg.CarrierSense && m.air.busy(tx, now) {
		if attempt >= m.airMaxAttempts() {
			m.stats.CarrierDrops++
			return nil
		}
		defer1 := m.kernel.UniformDuration(m.airMaxBackoff()) + time.Microsecond
		frame := p.Clone()
		m.kernel.Post(defer1, func() {
			_ = m.transmitAirtimeARQ(tx, frame, rangeFactor, attempt+1, arq)
		})
		m.stats.CarrierDeferrals++
		return nil
	}

	// Marshal once, decode once: receivers share the decoded frame (see
	// Medium.transmit).
	wire, err := p.MarshalAppend(m.wireBuf[:0])
	if err != nil {
		return err
	}
	m.wireBuf = wire
	decoded, err := packet.Unmarshal(wire)
	if err != nil {
		return err
	}
	m.stats.Transmissions++
	m.stats.BytesOnAir += uint64(len(wire))
	m.countBytes(p.Type, len(wire))
	dur := m.TxDelay(len(wire))
	end := now + dur
	arrival := dur + m.cfg.PropagationDelay

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
		iv := m.air.add(rx, tx, now, end)
		if m.fault != nil && m.fault(tx, rx, p) {
			m.stats.FaultDrops++
			if m.trace != nil {
				m.trace(TraceEvent{At: now, From: tx, To: rx, Packet: p, Lost: true})
			}
			continue
		}
		// Residual probabilistic loss still applies (noise floor).
		noise := m.kernel.Rand().Float64() < m.cfg.Loss.LossProb(tx, rx)
		// Only the addressed receiver can trigger an ARQ retransmission,
		// so only it needs a private deep copy of the frame.
		var retransmit *packet.Packet
		if p.Receiver == rx {
			retransmit = p.Clone()
		}
		if d == nil {
			d = m.newDelivery(decoded)
			d.airtime = true
			d.tx, d.sent, d.rangeFactor, d.arq = tx, p, rangeFactor, arq
		}
		d.rx = append(d.rx, st)
		d.air = append(d.air, airReception{iv: iv, noise: noise, retransmit: retransmit})
	}
	if d != nil {
		m.kernel.Post(arrival, d.fire)
	}
	return nil
}

// airtimeLost settles an airtime reception at its arrival instant, when
// every frame that could overlap it is known. It traces the attempt and
// reports whether the frame was lost; a lost unicast schedules the MAC's
// ARQ retransmission from the addressed receiver's private copy.
func (m *Medium) airtimeLost(d *delivery, rx field.NodeID, r *airReception) bool {
	lost := r.iv.corrupted || r.noise
	if m.trace != nil {
		m.trace(TraceEvent{At: m.kernel.Now(), From: d.tx, To: rx, Packet: d.sent, Lost: lost})
	}
	if !lost {
		return false
	}
	m.stats.Losses++
	if r.iv.corrupted {
		m.stats.AirtimeCollisions++
		if m.corrupted != nil {
			m.corrupted(rx)
		}
	}
	// MAC ARQ: the addressed receiver of a unicast frame failed to
	// acknowledge; retransmit after a backoff.
	if r.retransmit != nil && d.arq < m.airUnicastRetries() {
		m.stats.ARQRetransmissions++
		backoff := m.kernel.UniformDuration(m.airMaxBackoff()) + time.Microsecond
		tx, frame, rangeFactor, arq := d.tx, r.retransmit, d.rangeFactor, d.arq+1
		m.kernel.Post(backoff, func() {
			_ = m.transmitAirtimeARQ(tx, frame, rangeFactor, 0, arq)
		})
	}
	return true
}

func (m *Medium) airUnicastRetries() int {
	switch {
	case m.airCfg.UnicastRetries > 0:
		return m.airCfg.UnicastRetries
	case m.airCfg.UnicastRetries < 0:
		return 0
	default:
		return 3
	}
}

func (m *Medium) airMaxBackoff() time.Duration {
	if m.airCfg.MaxBackoff > 0 {
		return m.airCfg.MaxBackoff
	}
	// Default: four airtime slots of a ~60-byte control frame.
	return 4 * m.TxDelay(60)
}

func (m *Medium) airMaxAttempts() int {
	if m.airCfg.MaxAttempts > 0 {
		return m.airCfg.MaxAttempts
	}
	return 8
}
