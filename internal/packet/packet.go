// Package packet defines the wire-level message types exchanged by nodes:
// neighbor-discovery messages, on-demand routing control packets (REQ/REP),
// data packets, LITEWORP alert messages, and the encapsulated tunnel packets
// used by wormhole attackers. Packets carry an explicit immediate sender and
// an announced previous hop — the two fields LITEWORP's local monitoring
// depends on ("each packet forwarder must explicitly announce the immediate
// source of the packet it is forwarding").
//
// Packets have a binary encoding so that transmission delays can be derived
// from genuine on-air sizes (size * 8 / bandwidth).
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"liteworp/internal/field"
)

// NodeID aliases the field package's node identifier (4 bytes on the wire).
type NodeID = field.NodeID

// Broadcast is the all-nodes receiver ID.
const Broadcast = field.Broadcast

// Type enumerates packet kinds.
type Type uint8

// Packet types. Control traffic (the monitoring target) is REQ/REP; HELLO,
// HelloReply and NeighborList exist only during the secure neighbor
// discovery phase; Alert is LITEWORP's accusation message; TunnelEncap is
// the attacker's encapsulation wrapper.
const (
	TypeHello Type = iota + 1
	TypeHelloReply
	TypeNeighborList
	TypeRouteRequest
	TypeRouteReply
	TypeData
	TypeAlert
	TypeTunnelEncap

	// NumTypes is one past the largest packet type: a table indexed by
	// Type has NumTypes slots.
	NumTypes
)

var typeNames = map[Type]string{
	TypeHello:        "HELLO",
	TypeHelloReply:   "HELLO-REPLY",
	TypeNeighborList: "NBLIST",
	TypeRouteRequest: "REQ",
	TypeRouteReply:   "REP",
	TypeData:         "DATA",
	TypeAlert:        "ALERT",
	TypeTunnelEncap:  "TUNNEL",
}

// String returns the short packet-type mnemonic.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// IsControl reports whether packets of this type are routing control traffic
// subject to local monitoring (the paper watches control packets).
func (t Type) IsControl() bool {
	return t == TypeRouteRequest || t == TypeRouteReply
}

// MACSize is the truncated HMAC length appended to authenticated packets.
// 8 bytes keeps the overhead sensor-class small while making forgery
// infeasible within a simulation's lifetime.
const MACSize = 8

// Packet is a single over-the-air frame.
type Packet struct {
	Type Type

	// Seq disambiguates packets from the same origin. (Origin, Seq)
	// identifies a flooded REQ for duplicate suppression, and a REP/DATA
	// for watch-buffer matching. The paper's cost analysis budgets 8
	// bytes for the sequence number.
	Seq uint64

	// Origin is the node that created the packet (e.g. the route-request
	// source); FinalDest is its ultimate destination (Broadcast for
	// flooded packets).
	Origin    NodeID
	FinalDest NodeID

	// Sender is the node actually transmitting this frame. PrevHop is the
	// announced node from which Sender received the packet; for packets
	// originated by Sender, PrevHop == Sender. Receiver is the intended
	// immediate recipient, or Broadcast.
	Sender   NodeID
	PrevHop  NodeID
	Receiver NodeID

	// HopCount is the number of hops the packet claims to have traversed.
	HopCount uint16

	// Route carries the accumulated source route (REQ) or the full
	// reverse route (REP, DATA).
	Route []NodeID

	// Payload is opaque application data (sized for tx-delay accounting).
	Payload []byte

	// MAC authenticates unicast messages between nodes sharing a pairwise
	// key (HELLO replies, neighbor lists, alerts). Empty when unused.
	MAC []byte

	// pool and refs are a pooled frame's lifetime (see Pool); they are
	// bookkeeping, not wire content, and nil/0 on every other frame.
	pool *Pool
	refs int32
}

// Clone returns a deep copy; forwarding mutates the copy, never the
// original (slices are not shared — see "copy slices at boundaries").
// The copy is an ordinary frame, even when p is pooled.
func (p *Packet) Clone() *Packet {
	q := *p
	q.pool, q.refs = nil, 0
	if p.Route != nil {
		q.Route = make([]NodeID, len(p.Route))
		copy(q.Route, p.Route)
	}
	if p.Payload != nil {
		q.Payload = make([]byte, len(p.Payload))
		copy(q.Payload, p.Payload)
	}
	if p.MAC != nil {
		q.MAC = make([]byte, len(p.MAC))
		copy(q.MAC, p.MAC)
	}
	return &q
}

// Key identifies the logical packet for duplicate suppression and
// watch-buffer matching, independent of the hop currently carrying it.
type Key struct {
	Type   Type
	Origin NodeID
	Seq    uint64
}

// Key returns the packet's logical identity.
func (p *Packet) Key() Key {
	return Key{Type: p.Type, Origin: p.Origin, Seq: p.Seq}
}

// String renders a compact human-readable form for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("%s seq=%d org=%d dst=%d snd=%d prev=%d rcv=%d hops=%d route=%v",
		p.Type, p.Seq, p.Origin, p.FinalDest, p.Sender, p.PrevHop, p.Receiver, p.HopCount, p.Route)
}

// Wire format:
//
//	type      uint8
//	seq       uint64
//	origin    uint32
//	finalDest uint32
//	sender    uint32
//	prevHop   uint32
//	receiver  uint32
//	hopCount  uint16
//	routeLen  uint16 | route entries uint32 each
//	payloadLen uint16 | payload bytes
//	macLen    uint8  | mac bytes
const fixedHeaderSize = 1 + 8 + 4 + 4 + 4 + 4 + 4 + 2 + 2 + 2 + 1

// Errors returned by Unmarshal.
var (
	ErrTruncated = errors.New("packet: truncated frame")
	ErrOversize  = errors.New("packet: length field exceeds limits")
)

// Limits on variable-length sections, to bound memory under fuzzed input.
const (
	MaxRouteLen   = 1024
	MaxPayloadLen = 65535
	MaxMACLen     = 64
)

// Size returns the encoded length in bytes without allocating.
func (p *Packet) Size() int {
	return fixedHeaderSize + 4*len(p.Route) + len(p.Payload) + len(p.MAC)
}

// Marshal encodes the packet into a fresh byte slice.
func (p *Packet) Marshal() ([]byte, error) {
	return p.MarshalAppend(make([]byte, 0, p.Size()))
}

// CheckLimits reports ErrOversize if a variable-length section is too long
// for its wire length field, i.e. if the packet cannot be encoded.
func (p *Packet) CheckLimits() error {
	switch {
	case len(p.Route) > MaxRouteLen:
		return fmt.Errorf("%w: route %d", ErrOversize, len(p.Route))
	case len(p.Payload) > MaxPayloadLen:
		return fmt.Errorf("%w: payload %d", ErrOversize, len(p.Payload))
	case len(p.MAC) > MaxMACLen:
		return fmt.Errorf("%w: mac %d", ErrOversize, len(p.MAC))
	}
	return nil
}

// MarshalAppend encodes the packet onto buf and returns the extended slice,
// letting callers reuse one buffer across encodes instead of allocating per
// frame.
func (p *Packet) MarshalAppend(buf []byte) ([]byte, error) {
	if err := p.CheckLimits(); err != nil {
		return nil, err
	}
	buf = append(buf, byte(p.Type))
	buf = binary.BigEndian.AppendUint64(buf, p.Seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Origin))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.FinalDest))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Sender))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.PrevHop))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Receiver))
	buf = binary.BigEndian.AppendUint16(buf, p.HopCount)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Route)))
	for _, id := range p.Route {
		buf = binary.BigEndian.AppendUint32(buf, uint32(id))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Payload)))
	buf = append(buf, p.Payload...)
	buf = append(buf, byte(len(p.MAC)))
	buf = append(buf, p.MAC...)
	return buf, nil
}

// Unmarshal decodes a frame produced by Marshal.
func Unmarshal(data []byte) (*Packet, error) {
	r := reader{buf: data}
	p := &Packet{}
	t, err := r.u8()
	if err != nil {
		return nil, err
	}
	p.Type = Type(t)
	if p.Seq, err = r.u64(); err != nil {
		return nil, err
	}
	var v uint32
	if v, err = r.u32(); err != nil {
		return nil, err
	}
	p.Origin = NodeID(v)
	if v, err = r.u32(); err != nil {
		return nil, err
	}
	p.FinalDest = NodeID(v)
	if v, err = r.u32(); err != nil {
		return nil, err
	}
	p.Sender = NodeID(v)
	if v, err = r.u32(); err != nil {
		return nil, err
	}
	p.PrevHop = NodeID(v)
	if v, err = r.u32(); err != nil {
		return nil, err
	}
	p.Receiver = NodeID(v)
	if p.HopCount, err = r.u16(); err != nil {
		return nil, err
	}
	routeLen, err := r.u16()
	if err != nil {
		return nil, err
	}
	if int(routeLen) > MaxRouteLen {
		return nil, fmt.Errorf("%w: route %d", ErrOversize, routeLen)
	}
	if routeLen > 0 {
		p.Route = make([]NodeID, routeLen)
		for i := range p.Route {
			if v, err = r.u32(); err != nil {
				return nil, err
			}
			p.Route[i] = NodeID(v)
		}
	}
	payloadLen, err := r.u16()
	if err != nil {
		return nil, err
	}
	if p.Payload, err = r.bytes(int(payloadLen)); err != nil {
		return nil, err
	}
	macLen, err := r.u8()
	if err != nil {
		return nil, err
	}
	if int(macLen) > MaxMACLen {
		return nil, fmt.Errorf("%w: mac %d", ErrOversize, macLen)
	}
	if p.MAC, err = r.bytes(int(macLen)); err != nil {
		return nil, err
	}
	if r.pos != len(r.buf) {
		return nil, fmt.Errorf("packet: %d trailing bytes", len(r.buf)-r.pos)
	}
	return p, nil
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) need(n int) error {
	if r.pos+n > len(r.buf) {
		return ErrTruncated
	}
	return nil
}

func (r *reader) u8() (uint8, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.buf[r.pos]
	r.pos++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if err := r.need(n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, r.buf[r.pos:r.pos+n])
	r.pos += n
	return out, nil
}

// AuthBytes returns the canonical byte string covered by a packet's MAC:
// the full encoding with the MAC section zeroed out.
func (p *Packet) AuthBytes() ([]byte, error) {
	return p.AppendAuthBytes(make([]byte, 0, p.Size()))
}

// AppendAuthBytes appends the canonical MAC-covered encoding onto buf and
// returns the extended slice — the allocation-free sibling of AuthBytes for
// callers that keep a reusable buffer. The packet's MAC field is detached
// for the duration of the encode and restored before returning; the
// simulator is single-threaded, so the transient mutation is unobservable.
func (p *Packet) AppendAuthBytes(buf []byte) ([]byte, error) {
	mac := p.MAC
	p.MAC = nil
	out, err := p.MarshalAppend(buf)
	p.MAC = mac
	return out, err
}
