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
//   - a transmitter that can itself hear an ongoing frame defers by a
//     random backoff before trying again, up to maxAttempts attempts
//     (CSMA without RTS/CTS, as broadcast traffic cannot use virtual
//     carrier reservation);
//   - the loss model still applies on top, as a residual noise floor.

// Contention constants, fixed for every run.
const (
	// maxAttempts bounds carrier-sense attempts before the frame is
	// dropped at the transmitter.
	maxAttempts = 8
	// unicastRetries is the MAC-level ARQ limit for addressed frames
	// (802.11 retransmits unlucky unicasts; broadcasts rely on flood
	// redundancy instead). Each retransmission is a full physical
	// broadcast, so overhearers get another chance too. Acknowledgments
	// are modeled as instantaneous and reliable.
	unicastRetries = 3
	// backoffFrameBytes sizes the uniform deferral bound: four airtime
	// slots of a frame this long (a typical control packet).
	backoffFrameBytes = 60
)

type airInterval struct {
	from       field.NodeID
	start, end time.Duration
	// corrupted marks the reception destroyed by an overlap.
	corrupted bool
}

// prune drops the intervals that ended before now.
func (st *station) prune(now time.Duration) {
	keep := st.air[:0]
	for _, iv := range st.air {
		if iv.end > now {
			keep = append(keep, iv)
		}
	}
	st.air = keep
}

// hear registers a reception interval at the station and returns it,
// marking it and any overlapping interval from a different transmitter as
// corrupted.
func (st *station) hear(from field.NodeID, start, end time.Duration) *airInterval {
	st.prune(start)
	iv := &airInterval{from: from, start: start, end: end}
	for _, other := range st.air {
		if other.from == from {
			continue
		}
		if other.start < end && start < other.end {
			other.corrupted = true
			iv.corrupted = true
		}
	}
	st.air = append(st.air, iv)
	return iv
}

// busy reports whether the station currently hears an ongoing frame.
func (st *station) busy(now time.Duration) bool {
	st.prune(now)
	for _, iv := range st.air {
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
	src := m.stations.get(tx)
	if src == nil || src.down {
		// The transmitter crashed between a carrier-sense deferral or ARQ
		// backoff and this retry.
		return nil
	}
	now := m.kernel.Now()
	if src.busy(now) {
		if attempt >= maxAttempts {
			m.stats.CarrierDrops++
			return nil
		}
		defer1 := m.kernel.UniformDuration(m.maxBackoff()) + time.Microsecond
		p.Retain() // the deferral's reference, released once it has run
		m.kernel.Post(defer1, func() {
			_ = m.transmitAirtimeARQ(tx, p, rangeFactor, attempt+1, arq)
			p.Release()
		})
		m.stats.CarrierDeferrals++
		return nil
	}

	dur := m.TxDelay(m.countTransmission(p))
	end := now + dur
	arrival := dur + propagationDelay

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
		iv := st.hear(tx, now, end)
		if m.fault != nil && m.fault(tx, rx, p) {
			m.stats.FaultDrops++
			m.traceRx(tx, rx, p, true, false)
			continue
		}
		// Residual probabilistic loss still applies (noise floor).
		noise := m.kernel.Rand().Float64() < m.loss.LossProb(tx, rx)
		if d == nil {
			d = m.newDelivery(p)
			d.airtime = true
			d.tx, d.rangeFactor, d.arq = tx, rangeFactor, arq
		}
		d.rx = append(d.rx, st)
		// Only the addressed receiver can trigger an ARQ retransmission.
		d.air = append(d.air, airReception{iv: iv, noise: noise, retransmit: p.Receiver == rx})
	}
	if d != nil {
		m.kernel.Post(arrival, d.fire)
	}
	return nil
}

// airtimeLost settles an airtime reception at its arrival instant, when
// every frame that could overlap it is known. It traces the attempt and
// reports whether the frame was lost; a lost unicast at its addressed
// receiver schedules the MAC's ARQ retransmission of the same frame.
func (m *Medium) airtimeLost(d *delivery, rx field.NodeID, r *airReception) bool {
	lost := r.iv.corrupted || r.noise
	m.traceRx(d.tx, rx, d.frame, lost, false)
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
	if r.retransmit && d.arq < unicastRetries {
		m.stats.ARQRetransmissions++
		backoff := m.kernel.UniformDuration(m.maxBackoff()) + time.Microsecond
		tx, frame, rangeFactor, arq := d.tx, d.frame, d.rangeFactor, d.arq+1
		frame.Retain() // the retransmission's reference, released once it has run
		m.kernel.Post(backoff, func() {
			_ = m.transmitAirtimeARQ(tx, frame, rangeFactor, 0, arq)
			frame.Release()
		})
	}
	return true
}

// maxBackoff is the upper bound of the uniform deferral delay.
func (m *Medium) maxBackoff() time.Duration {
	return 4 * m.TxDelay(backoffFrameBytes)
}
