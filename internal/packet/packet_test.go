package packet

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	return &Packet{
		Type:      TypeRouteReply,
		Seq:       0xDEADBEEF01,
		Origin:    7,
		FinalDest: 12,
		Sender:    9,
		PrevHop:   3,
		Receiver:  11,
		HopCount:  4,
		Route:     []NodeID{7, 3, 9, 11, 12},
		Payload:   []byte("hello sensors"),
		MAC:       []byte{1, 2, 3, 4, 5, 6, 7, 8},
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := samplePacket()
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != p.Size() {
		t.Fatalf("encoded %d bytes, Size() = %d", len(data), p.Size())
	}
	q, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", p, q)
	}
}

func TestMarshalEmptySections(t *testing.T) {
	p := &Packet{Type: TypeHello, Sender: 1, PrevHop: 1, Receiver: Broadcast}
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch: %+v vs %+v", p, q)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	data, err := samplePacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestUnmarshalTrailingGarbage(t *testing.T) {
	data, err := samplePacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(data, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestMarshalOversizeRejected(t *testing.T) {
	p := samplePacket()
	p.Route = make([]NodeID, MaxRouteLen+1)
	if _, err := p.Marshal(); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize route: err = %v", err)
	}
	p = samplePacket()
	p.MAC = make([]byte, MaxMACLen+1)
	if _, err := p.Marshal(); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize mac: err = %v", err)
	}
}

func TestUnmarshalHugeRouteLenRejected(t *testing.T) {
	p := samplePacket()
	p.Route = nil
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// routeLen lives at offset 1+8+4*5+2 = 31.
	const routeLenOff = 1 + 8 + 20 + 2
	data[routeLenOff] = 0xFF
	data[routeLenOff+1] = 0xFF
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("absurd route length accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := samplePacket()
	q := p.Clone()
	q.Route[0] = 999
	q.Payload[0] = 'X'
	q.MAC[0] = 0xFF
	if p.Route[0] == 999 || p.Payload[0] == 'X' || p.MAC[0] == 0xFF {
		t.Fatal("Clone shares slices with original")
	}
}

func TestKeyIdentity(t *testing.T) {
	p := samplePacket()
	q := p.Clone()
	q.Sender = 42
	q.PrevHop = 9
	q.HopCount = 9
	if p.Key() != q.Key() {
		t.Fatal("Key should not depend on per-hop fields")
	}
	q.Seq++
	if p.Key() == q.Key() {
		t.Fatal("Key should depend on Seq")
	}
}

func TestAuthBytesExcludesMAC(t *testing.T) {
	p := samplePacket()
	a1, err := p.AuthBytes()
	if err != nil {
		t.Fatal(err)
	}
	q := p.Clone()
	q.MAC = []byte{9, 9, 9, 9}
	a2, err := q.AuthBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a1, a2) {
		t.Fatal("AuthBytes varies with MAC contents")
	}
	q.Payload = append(q.Payload, 'x')
	a3, err := q.AuthBytes()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a1, a3) {
		t.Fatal("AuthBytes ignores payload changes")
	}
}

func TestTypeString(t *testing.T) {
	if TypeRouteRequest.String() != "REQ" {
		t.Fatalf("REQ string = %q", TypeRouteRequest.String())
	}
	if Type(200).String() == "" {
		t.Fatal("unknown type produced empty string")
	}
}

func TestIsControl(t *testing.T) {
	if !TypeRouteRequest.IsControl() || !TypeRouteReply.IsControl() {
		t.Fatal("REQ/REP must be control")
	}
	for _, ty := range []Type{TypeHello, TypeHelloReply, TypeNeighborList, TypeData, TypeAlert, TypeTunnelEncap} {
		if ty.IsControl() {
			t.Fatalf("%v should not be control", ty)
		}
	}
}

func TestPacketStringStable(t *testing.T) {
	if samplePacket().String() == "" {
		t.Fatal("empty String()")
	}
}

func randomPacket(rng *rand.Rand) *Packet {
	p := &Packet{
		Type:      Type(rng.Intn(8) + 1),
		Seq:       rng.Uint64(),
		Origin:    NodeID(rng.Uint32()),
		FinalDest: NodeID(rng.Uint32()),
		Sender:    NodeID(rng.Uint32()),
		PrevHop:   NodeID(rng.Uint32()),
		Receiver:  NodeID(rng.Uint32()),
		HopCount:  uint16(rng.Intn(1 << 16)),
	}
	if n := rng.Intn(20); n > 0 {
		p.Route = make([]NodeID, n)
		for i := range p.Route {
			p.Route[i] = NodeID(rng.Uint32())
		}
	}
	if n := rng.Intn(100); n > 0 {
		p.Payload = make([]byte, n)
		rng.Read(p.Payload)
	}
	if n := rng.Intn(MACSize + 1); n > 0 {
		p.MAC = make([]byte, n)
		rng.Read(p.MAC)
	}
	return p
}

// Property: Marshal/Unmarshal is the identity for arbitrary valid packets.
func TestPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		p := randomPacket(rng)
		data, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		q, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("iter %d: %v\npacket %+v", i, err, p)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("iter %d mismatch:\n in  %+v\n out %+v", i, p, q)
		}
	}
}

// Property: Unmarshal never panics on arbitrary input and either errors or
// produces a packet that re-encodes to the same bytes.
func TestPropertyUnmarshalTotal(t *testing.T) {
	f := func(data []byte) bool {
		p, err := Unmarshal(data)
		if err != nil {
			return true
		}
		out, err := p.Marshal()
		if err != nil {
			return false
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeAccountsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		p := randomPacket(rng)
		data, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != p.Size() {
			t.Fatalf("Size()=%d, encoded %d", p.Size(), len(data))
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	p := samplePacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	data, err := samplePacket().Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMarshalAppendReusesBuffer(t *testing.T) {
	p := samplePacket()
	want, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 256)
	got, err := p.MarshalAppend(buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("MarshalAppend did not reuse the provided buffer capacity")
	}
	if string(got) != string(want) {
		t.Fatal("MarshalAppend encoding differs from Marshal")
	}
	// Reusing the same buffer for a second frame must reproduce it too.
	q := samplePacket()
	q.Seq = 999
	wantQ, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	gotQ, err := q.MarshalAppend(got[:0])
	if err != nil {
		t.Fatal(err)
	}
	if string(gotQ) != string(wantQ) {
		t.Fatal("buffer reuse corrupted the second encoding")
	}
}

func TestMarshalAppendPreservesPrefix(t *testing.T) {
	p := samplePacket()
	prefix := []byte("hdr:")
	out, err := p.MarshalAppend(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if string(out[:4]) != "hdr:" {
		t.Fatal("MarshalAppend clobbered the existing prefix")
	}
	if _, err := Unmarshal(out[4:]); err != nil {
		t.Fatalf("frame after prefix does not decode: %v", err)
	}
}
