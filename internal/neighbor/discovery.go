package neighbor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/keys"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// The discovery protocol (paper §4.2.1, "Building Neighbor Lists"):
//
//  1. At deployment a node does a one-hop broadcast of a HELLO message.
//  2. Any node that hears it sends back an authenticated reply using the
//     pairwise shared key. The announcer verifies each reply and adds the
//     responder to its neighbor list R_A.
//  3. The announcer then one-hop broadcasts R_A, authenticated individually
//     with the key shared with each member of R_A. Members verify their tag
//     and store R_A — the second-hop information.
//
// The protocol runs once per node lifetime; the system model's compromise
// threshold time T_CT guarantees no insider exists within two hops while it
// runs.

// Discovery timing, fixed for every run.
const (
	// replyWindow is how long the announcer collects HELLO replies before
	// broadcasting its neighbor list.
	replyWindow = 2 * time.Second
	// DiscoveryTime is when a node's discovery completes, counted from
	// its HELLO: T_ND in the paper's system model.
	DiscoveryTime = 2 * replyWindow
	// replyJitter randomizes reply transmission within the window to
	// avoid synchronized reply bursts.
	replyJitter = 500 * time.Millisecond
	// joinTTL bounds how long a heard HELLO keeps the join window open.
	joinTTL = 2 * replyWindow
)

// Discovery runs the secure neighbor discovery protocol for one node.
type Discovery struct {
	kernel sim.Clock
	ring   *keys.Ring
	table  *Table
	send   func(*packet.Packet) error
	// dynamic enables incremental joins (see NewDiscovery).
	dynamic bool

	seq      uint64
	started  bool
	complete bool
	onDone   func()

	// pendingJoin tracks HELLOs recently heard from unknown nodes while
	// dynamic mode is on: sender -> join window expiry.
	pendingJoin map[field.NodeID]time.Duration
}

// NewDiscovery wires a discovery instance for the owner of table/ring.
// send transmits a frame on the shared medium.
//
// dynamic enables incremental joins (the paper's §7 extension for mobile
// networks / incremental deployment): an established node that hears a
// HELLO from an unknown node replies as usual, remembers the join attempt
// briefly, and — when the joiner's authenticated neighbor-list
// announcement names it with a valid per-member MAC — adds the joiner as a
// direct neighbor. Note: without the initial deployment's
// compromise-threshold-time assumption, dynamic joins reopen the
// relay-attack window during the handshake; the paper's cited dynamic
// protocols ([15][16]) close it with additional hardware/timing, and local
// monitoring then polices the new links.
func NewDiscovery(k sim.Clock, ring *keys.Ring, table *Table, send func(*packet.Packet) error, dynamic bool) *Discovery {
	return &Discovery{
		kernel: k, ring: ring, table: table, send: send, dynamic: dynamic,
		pendingJoin: make(map[field.NodeID]time.Duration),
	}
}

// OnComplete registers a callback invoked when discovery finishes
// (neighbor list broadcast sent and the listen window expired).
func (d *Discovery) OnComplete(fn func()) { d.onDone = fn }

// Complete reports whether the discovery phase has finished.
func (d *Discovery) Complete() bool { return d.complete }

func (d *Discovery) nextSeq() uint64 {
	d.seq++
	return d.seq
}

// Start broadcasts the HELLO and schedules the two protocol phases.
func (d *Discovery) Start() error {
	if d.started {
		return errors.New("neighbor: discovery already started")
	}
	d.started = true
	self := d.table.Self()
	hello := &packet.Packet{
		Type:     packet.TypeHello,
		Seq:      d.nextSeq(),
		Origin:   self,
		Sender:   self,
		PrevHop:  self,
		Receiver: packet.Broadcast,
	}
	if err := d.send(hello); err != nil {
		return fmt.Errorf("neighbor: hello: %w", err)
	}
	d.kernel.After(replyWindow, d.announceList)
	d.kernel.After(DiscoveryTime, func() {
		d.complete = true
		if d.onDone != nil {
			d.onDone()
		}
	})
	return nil
}

func (d *Discovery) announceList() {
	self := d.table.Self()
	// Stale members are included so a rebooted neighbor — still marked
	// stale here until it is heard again — finds its tag and can verify.
	members := d.table.TrustedNeighbors()
	payload, err := EncodeNeighborList(members, func(listBytes []byte, member field.NodeID) []byte {
		return d.ring.SignBytes(listBytes, member)
	})
	if err != nil {
		return
	}
	nblist := &packet.Packet{
		Type:     packet.TypeNeighborList,
		Seq:      d.nextSeq(),
		Origin:   self,
		Sender:   self,
		PrevHop:  self,
		Receiver: packet.Broadcast,
		Payload:  payload,
	}
	_ = d.send(nblist)
}

// Handle processes a discovery-phase frame addressed to or overheard by
// this node. It reports whether the frame was consumed.
func (d *Discovery) Handle(p *packet.Packet) bool {
	switch p.Type {
	case packet.TypeHello:
		d.handleHello(p)
		return true
	case packet.TypeHelloReply:
		d.handleHelloReply(p)
		return true
	case packet.TypeNeighborList:
		d.handleNeighborList(p)
		return true
	default:
		return false
	}
}

func (d *Discovery) handleHello(p *packet.Packet) {
	self := d.table.Self()
	if p.Sender == self {
		return
	}
	announcer := p.Sender
	if d.table.IsNeighbor(announcer) || d.table.IsStale(announcer) {
		// A HELLO from a node we already know is a rebooted neighbor
		// re-running discovery: its volatile state — including the
		// second-hop knowledge it needs to pass two-hop checks — is gone.
		// Re-announce our neighbor list once our (jittered) reply has had
		// time to re-establish the direct link, so the announcer can
		// verify the list. At initial deployment this path never fires:
		// HELLOs arrive before any replies, so every announcer is still
		// unknown.
		d.kernel.After(replyJitter+d.kernel.UniformDuration(replyJitter), d.announceList)
	}
	if d.dynamic && !d.table.HasEntry(announcer) {
		// A join attempt: leave the door open for the announcer's
		// authenticated neighbor-list to complete the handshake.
		d.pendingJoin[announcer] = d.kernel.Now() + joinTTL
		exp := d.pendingJoin[announcer]
		d.kernel.After(joinTTL, func() {
			if cur, ok := d.pendingJoin[announcer]; ok && cur <= exp && cur <= d.kernel.Now() {
				delete(d.pendingJoin, announcer)
			}
		})
	}
	reply := &packet.Packet{
		Type:     packet.TypeHelloReply,
		Seq:      d.nextSeq(),
		Origin:   self,
		Sender:   self,
		PrevHop:  self,
		Receiver: announcer,
	}
	if err := d.ring.Sign(reply, announcer); err != nil {
		return
	}
	delay := d.kernel.UniformDuration(replyJitter)
	d.kernel.After(delay, func() { _ = d.send(reply) })
}

func (d *Discovery) handleHelloReply(p *packet.Packet) {
	self := d.table.Self()
	if p.Receiver != self || p.Sender == self {
		return // overheard someone else's reply
	}
	if !d.ring.Verify(p, p.Sender) {
		return // unauthenticated responder (e.g. an external attacker)
	}
	d.table.AddDirect(p.Sender)
}

func (d *Discovery) handleNeighborList(p *packet.Packet) {
	self := d.table.Self()
	if p.Sender == self {
		return
	}
	// Lists from direct neighbors refresh second-hop knowledge; a list
	// from a stale neighbor is a rebooted node re-announcing itself after
	// re-running discovery against its persisted key ring. In dynamic mode
	// a list from a node whose HELLO we recently heard completes the join
	// handshake. Either way the announcer must have authenticated the list
	// for us specifically.
	joining := false
	if !d.table.IsNeighbor(p.Sender) && !d.table.IsStale(p.Sender) {
		exp, pending := d.pendingJoin[p.Sender]
		if !d.dynamic || !pending || exp <= d.kernel.Now() {
			return
		}
		joining = true
	}
	ids, listBytes, tag, err := DecodeNeighborList(p.Payload, self)
	if err != nil {
		return
	}
	if tag == nil {
		// We are not a member of the announcer's list (asymmetric hearing
		// or a lost reply); without a tag the list cannot be verified.
		return
	}
	if !d.ring.VerifyBytes(listBytes, tag, p.Sender) {
		return
	}
	if joining {
		d.table.AddDirect(p.Sender)
		delete(d.pendingJoin, p.Sender)
		// Our own announced list is now stale: re-announce (jittered) so
		// the rest of the neighborhood learns the new link — otherwise
		// their second-hop checks would reject forwards across it.
		d.kernel.After(d.kernel.UniformDuration(replyJitter), d.announceList)
	}
	// An authenticated list from a presumed-dead neighbor proves it is back.
	d.table.Refresh(p.Sender)
	d.table.SetNeighborSet(p.Sender, ids)
}

// Neighbor-list payload layout:
//
//	count   uint16
//	ids     count * uint32
//	tags    count * MACSize bytes (tags[i] authenticates the id section for
//	        member ids[i])

// ErrBadList reports a malformed neighbor-list payload.
var ErrBadList = errors.New("neighbor: malformed neighbor-list payload")

// EncodeNeighborList serializes the member list with one authentication tag
// per member, produced by signFor(listBytes, member).
func EncodeNeighborList(members []field.NodeID, signFor func(listBytes []byte, member field.NodeID) []byte) ([]byte, error) {
	if len(members) > 0xFFFF {
		return nil, fmt.Errorf("%w: %d members", ErrBadList, len(members))
	}
	listBytes := make([]byte, 0, 2+4*len(members))
	listBytes = binary.BigEndian.AppendUint16(listBytes, uint16(len(members)))
	for _, id := range members {
		listBytes = binary.BigEndian.AppendUint32(listBytes, uint32(id))
	}
	out := make([]byte, len(listBytes), len(listBytes)+packet.MACSize*len(members))
	copy(out, listBytes)
	for _, id := range members {
		tag := signFor(listBytes, id)
		if len(tag) != packet.MACSize {
			return nil, fmt.Errorf("%w: tag size %d", ErrBadList, len(tag))
		}
		out = append(out, tag...)
	}
	return out, nil
}

// DecodeNeighborList parses a payload and extracts the tag addressed to
// self (nil if self is not a member). listBytes is the tag-covered section.
func DecodeNeighborList(payload []byte, self field.NodeID) (ids []field.NodeID, listBytes, tag []byte, err error) {
	if len(payload) < 2 {
		return nil, nil, nil, ErrBadList
	}
	n := int(binary.BigEndian.Uint16(payload))
	headerLen := 2 + 4*n
	wantLen := headerLen + packet.MACSize*n
	if len(payload) != wantLen {
		return nil, nil, nil, fmt.Errorf("%w: length %d, want %d", ErrBadList, len(payload), wantLen)
	}
	ids = make([]field.NodeID, n)
	selfIdx := -1
	for i := 0; i < n; i++ {
		ids[i] = field.NodeID(binary.BigEndian.Uint32(payload[2+4*i:]))
		if ids[i] == self {
			selfIdx = i
		}
	}
	listBytes = payload[:headerLen]
	if selfIdx >= 0 {
		off := headerLen + packet.MACSize*selfIdx
		tag = payload[off : off+packet.MACSize]
	}
	return ids, listBytes, tag, nil
}
