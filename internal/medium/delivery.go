package medium

import (
	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// delivery is one transmission's pending receptions: the frame, decoded
// once, and every receiver that survived the transmit-time checks, in
// ascending ID order. A single kernel event fires the whole batch at the
// common arrival instant.
//
// This is exactly equivalent to one event per reception. Those events
// shared one timestamp and held consecutive sequence numbers (nothing in a
// transmit loop schedules events: tracing, fault hooks and the corruption
// notifier only record), so no other event could run between them, and an
// event a receiver schedules at the same instant still runs after the rest
// of the batch. Every random draw (loss, fault, noise) stays at transmit
// time, in receiver order.
//
// Every receiver gets the same *packet.Packet. The frame is shared and
// read-only: a stack must Clone before it mutates or keeps it.
//
// Batches are pooled on the Medium; the receiver slices keep their
// capacity across reuses, so a warm delivery allocates nothing beyond the
// decode. The pool holds as many batches as were ever in flight at once, so
// a receiver slot is kept to one pointer on the common path.
type delivery struct {
	m     *Medium
	frame *packet.Packet
	rx    []*station
	// air runs parallel to rx on the airtime path and is empty otherwise.
	air []airReception
	// tunnel marks an out-of-band transfer, which is not a radio reception
	// and so does not count in Stats.Deliveries.
	tunnel bool
	// airtime marks a contention-model transmission: each reception's fate
	// is settled at arrival, when every overlapping frame is known.
	airtime bool
	// Airtime context for the arrival-time trace and ARQ retransmissions.
	tx          field.NodeID
	sent        *packet.Packet // the sender's frame, as the trace reports it
	rangeFactor float64
	arq         int

	fire sim.Event // prebound (*delivery).deliver, allocated once per batch
}

// airReception is one receiver's airtime state: the reception's air
// interval (an overlapping frame may still corrupt it in flight), the
// residual-noise draw made at transmit time, and the addressed receiver's
// private ARQ copy of the frame (nil for overhearers).
type airReception struct {
	iv         *airInterval
	noise      bool
	retransmit *packet.Packet
}

// newDelivery takes a batch for frame from the free list, or allocates one.
func (m *Medium) newDelivery(frame *packet.Packet) *delivery {
	if n := len(m.freeDeliveries); n > 0 {
		d := m.freeDeliveries[n-1]
		m.freeDeliveries[n-1] = nil
		m.freeDeliveries = m.freeDeliveries[:n-1]
		d.frame = frame
		return d
	}
	d := &delivery{m: m, frame: frame}
	d.fire = d.deliver
	return d
}

// recycleDelivery returns a fired batch to the free list. It drops every
// frame and station reference, so nothing the batch carried outlives it.
func (m *Medium) recycleDelivery(d *delivery) {
	clear(d.rx)
	d.rx = d.rx[:0]
	clear(d.air)
	d.air = d.air[:0]
	d.frame, d.sent = nil, nil
	d.tunnel, d.airtime = false, false
	m.freeDeliveries = append(m.freeDeliveries, d)
}

// deliver hands the frame to each receiver in turn. A receiver that went
// down while the frame was in flight — even one crashed by an earlier
// receiver of this same batch — is checked at its own turn and skipped.
func (d *delivery) deliver() {
	m := d.m
	for i, st := range d.rx {
		if st.down {
			// The receiver crashed while the frame was in flight.
			m.stats.DownSuppressed++
			continue
		}
		if d.airtime && m.airtimeLost(d, st.id, &d.air[i]) {
			continue
		}
		if !d.tunnel {
			m.stats.Deliveries++
		}
		st.recv(d.frame)
	}
	m.recycleDelivery(d)
}
