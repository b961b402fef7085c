package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// The medium hands receivers the sender's *Packet without encoding it. That
// is equivalent to the wire only while every field survives the codec; the
// tests below keep it so.

// samePacket reports whether a and b are deeply equal once nil and empty
// slices are treated alike (the decoder yields nil for an empty section).
func samePacket(a, b *Packet) bool {
	norm := func(p *Packet) Packet {
		q := *p
		if len(q.Route) == 0 {
			q.Route = nil
		}
		if len(q.Payload) == 0 {
			q.Payload = nil
		}
		if len(q.MAC) == 0 {
			q.MAC = nil
		}
		return q
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// TestEveryPacketFieldIsOnTheWire sets each exported Packet field, one at a
// time, to a non-zero value and requires it to survive Marshal/Unmarshal. A
// field added to Packet but not to the codec fails here, as does a field of
// a kind the test cannot fill: put it on the wire and teach nonZero its
// kind.
func TestEveryPacketFieldIsOnTheWire(t *testing.T) {
	typ := reflect.TypeOf(Packet{})
	for i := 0; i < typ.NumField(); i++ {
		fd := typ.Field(i)
		if !fd.IsExported() {
			continue
		}
		var p Packet
		v, ok := nonZero(fd.Type)
		if !ok {
			t.Errorf("field %s: no non-zero value for kind %v", fd.Name, fd.Type.Kind())
			continue
		}
		reflect.ValueOf(&p).Elem().Field(i).Set(v)
		data, err := p.Marshal()
		if err != nil {
			t.Fatalf("field %s: %v", fd.Name, err)
		}
		q, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("field %s: %v", fd.Name, err)
		}
		if got := reflect.ValueOf(q).Elem().Field(i).Interface(); !reflect.DeepEqual(got, v.Interface()) {
			t.Errorf("field %s does not survive the wire: sent %v, received %v", fd.Name, v.Interface(), got)
		}
	}
}

// nonZero returns an all-ones value of t (three elements for a slice), or
// false for a kind it does not know.
func nonZero(t reflect.Type) (reflect.Value, bool) {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(^uint64(0) >> (64 - t.Bits()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(t, 3, 3))
		for i := 0; i < 3; i++ {
			e, ok := nonZero(t.Elem())
			if !ok {
				return reflect.Value{}, false
			}
			v.Index(i).Set(e)
		}
	default:
		return reflect.Value{}, false
	}
	return v, true
}

// FuzzPacketRoundTrip checks both directions of the codec: a packet built
// from the fuzzed fields decodes back to itself (or is refused for exactly
// the limits CheckLimits names), and any bytes Unmarshal accepts re-encode
// to the same bytes.
func FuzzPacketRoundTrip(f *testing.F) {
	sample, err := samplePacket().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(TypeRouteReply), uint64(0xDEADBEEF01), uint32(7), uint32(12), uint32(9), uint32(3), uint32(11), uint16(4),
		[]byte{0, 0, 0, 7, 0, 0, 0, 3}, []byte("hello sensors"), []byte{1, 2, 3, 4, 5, 6, 7, 8}, sample)
	f.Add(uint8(TypeHello), uint64(0), uint32(1), uint32(0), uint32(1), uint32(1), uint32(Broadcast), uint16(0),
		[]byte{}, []byte(nil), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, typ uint8, seq uint64, origin, finalDest, sender, prevHop, receiver uint32, hops uint16,
		route, payload, mac, wire []byte) {
		p := &Packet{
			Type: Type(typ), Seq: seq, Origin: NodeID(origin), FinalDest: NodeID(finalDest),
			Sender: NodeID(sender), PrevHop: NodeID(prevHop), Receiver: NodeID(receiver), HopCount: hops,
			Payload: payload, MAC: mac,
		}
		for len(route) >= 4 {
			p.Route = append(p.Route, NodeID(binary.BigEndian.Uint32(route)))
			route = route[4:]
		}
		data, err := p.Marshal()
		if limitErr := p.CheckLimits(); limitErr != nil {
			if !errors.Is(err, ErrOversize) {
				t.Fatalf("over the limits (%v), Marshal err = %v", limitErr, err)
			}
		} else {
			if err != nil {
				t.Fatalf("within the limits, Marshal err = %v", err)
			}
			if len(data) != p.Size() {
				t.Fatalf("encoded %d bytes, Size() = %d", len(data), p.Size())
			}
			q, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("Unmarshal(Marshal(p)): %v", err)
			}
			if !samePacket(p, q) {
				t.Fatalf("round trip changed the packet:\n in  %+v\n out %+v", p, q)
			}
		}

		q, err := Unmarshal(wire)
		if err != nil {
			return
		}
		out, err := q.Marshal()
		if err != nil {
			t.Fatalf("accepted bytes do not re-encode: %v", err)
		}
		if !bytes.Equal(out, wire) {
			t.Fatalf("accepted bytes re-encode differently:\n in  %x\n out %x", wire, out)
		}
	})
}
