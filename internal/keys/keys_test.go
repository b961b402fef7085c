package keys

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"liteworp/internal/field"
	"liteworp/internal/packet"
)

func TestPairKeySymmetric(t *testing.T) {
	s := NewKeyServer(1)
	if !bytes.Equal(s.PairKey(3, 9), s.PairKey(9, 3)) {
		t.Fatal("PairKey not symmetric")
	}
}

func TestPairKeyDistinctPairs(t *testing.T) {
	s := NewKeyServer(1)
	k1 := s.PairKey(1, 2)
	k2 := s.PairKey(1, 3)
	k3 := s.PairKey(2, 3)
	if bytes.Equal(k1, k2) || bytes.Equal(k1, k3) || bytes.Equal(k2, k3) {
		t.Fatal("distinct pairs share a key")
	}
}

func TestPairKeyDependsOnMaster(t *testing.T) {
	a := NewKeyServer(1).PairKey(1, 2)
	b := NewKeyServer(2).PairKey(1, 2)
	if bytes.Equal(a, b) {
		t.Fatal("different master secrets yielded the same pair key")
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	s := NewKeyServer(7)
	alice := NewRing(1, s)
	bob := NewRing(2, s)

	p := &packet.Packet{Type: packet.TypeAlert, Seq: 5, Origin: 1, Sender: 1, PrevHop: 1, Receiver: 2}
	if err := alice.Sign(p, 2); err != nil {
		t.Fatal(err)
	}
	if len(p.MAC) != packet.MACSize {
		t.Fatalf("MAC len = %d", len(p.MAC))
	}
	if !bob.Verify(p, 1) {
		t.Fatal("Bob failed to verify Alice's MAC")
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	s := NewKeyServer(7)
	alice := NewRing(1, s)
	bob := NewRing(2, s)

	p := &packet.Packet{Type: packet.TypeAlert, Seq: 5, Origin: 1, Sender: 1, PrevHop: 1, Receiver: 2, Payload: []byte("A is bad")}
	if err := alice.Sign(p, 2); err != nil {
		t.Fatal(err)
	}
	p.Payload[0] = 'B'
	if bob.Verify(p, 1) {
		t.Fatal("tampered packet verified")
	}
}

func TestVerifyRejectsWrongPeer(t *testing.T) {
	s := NewKeyServer(7)
	alice := NewRing(1, s)
	bob := NewRing(2, s)
	eve := NewRing(3, s)

	p := &packet.Packet{Type: packet.TypeAlert, Seq: 5, Origin: 1, Sender: 1, PrevHop: 1, Receiver: 2}
	if err := alice.Sign(p, 2); err != nil {
		t.Fatal(err)
	}
	// Eve cannot verify a packet MAC'd for Bob as if it were for her.
	if eve.Verify(p, 1) {
		t.Fatal("third party verified a pairwise MAC")
	}
	// Bob must not accept the packet as if it came from Eve.
	if bob.Verify(p, 3) {
		t.Fatal("verification against the wrong peer succeeded")
	}
}

func TestVerifyRejectsMissingOrBadLengthMAC(t *testing.T) {
	s := NewKeyServer(7)
	bob := NewRing(2, s)
	p := &packet.Packet{Type: packet.TypeAlert, Seq: 5, Origin: 1, Sender: 1}
	if bob.Verify(p, 1) {
		t.Fatal("packet without MAC verified")
	}
	p.MAC = []byte{1, 2, 3}
	if bob.Verify(p, 1) {
		t.Fatal("short MAC verified")
	}
}

func TestSignBytesRoundTrip(t *testing.T) {
	s := NewKeyServer(3)
	alice := NewRing(10, s)
	bob := NewRing(20, s)
	msg := []byte("neighbor list of 10")
	tag := alice.SignBytes(msg, 20)
	if !bob.VerifyBytes(msg, tag, 10) {
		t.Fatal("VerifyBytes failed on valid tag")
	}
	if bob.VerifyBytes(append(msg, '!'), tag, 10) {
		t.Fatal("VerifyBytes accepted modified message")
	}
	if bob.VerifyBytes(msg, tag[:4], 10) {
		t.Fatal("VerifyBytes accepted short tag")
	}
	if bob.VerifyBytes(msg, tag, 11) {
		t.Fatal("VerifyBytes accepted wrong claimed peer")
	}
}

func TestSignDoesNotCoverMACField(t *testing.T) {
	// Signing twice must be stable even though the first Sign set a MAC.
	s := NewKeyServer(3)
	alice := NewRing(1, s)
	p := &packet.Packet{Type: packet.TypeAlert, Seq: 1, Sender: 1}
	if err := alice.Sign(p, 2); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), p.MAC...)
	if err := alice.Sign(p, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, p.MAC) {
		t.Fatal("re-signing produced a different MAC")
	}
}

func TestRingCachesKeys(t *testing.T) {
	s := NewKeyServer(1)
	r := NewRing(1, s)
	s1 := r.state(2)
	s2 := r.state(2)
	if s1 != s2 {
		t.Fatal("HMAC state not cached per peer")
	}
	if r.Self() != 1 {
		t.Fatalf("Self = %d", r.Self())
	}
}

// TestSignZeroAllocsWarm pins the per-control-packet signing cost: cached
// HMAC state, reused auth and digest buffers, MAC written into the
// packet's existing backing — nothing on the heap. Signing raw bytes
// (SignBytes, the per-member neighbor-list tag) is as free.
func TestSignZeroAllocsWarm(t *testing.T) {
	s := NewKeyServer(1)
	r := NewRing(1, s)
	p := &packet.Packet{Type: packet.TypeAlert, Seq: 1, Sender: 1, Receiver: 2}
	if err := r.Sign(p, 2); err != nil { // warm: state cached, MAC capacity set
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		p.Seq++
		if err := r.Sign(p, 2); err != nil {
			t.Fatal(err)
		}
		_ = r.SignBytes(p.MAC, 2)
	})
	if allocs != 0 {
		t.Fatalf("warm Sign allocates %.1f objects/op, want 0", allocs)
	}
}

// TestVerifyZeroAllocsWarm is the receive-side twin, VerifyBytes included.
func TestVerifyZeroAllocsWarm(t *testing.T) {
	s := NewKeyServer(1)
	alice := NewRing(1, s)
	bob := NewRing(2, s)
	p := &packet.Packet{Type: packet.TypeAlert, Seq: 1, Sender: 1, Receiver: 2}
	if err := alice.Sign(p, 2); err != nil {
		t.Fatal(err)
	}
	if !bob.Verify(p, 1) { // warm bob's state cache
		t.Fatal("verify failed")
	}
	data := []byte("neighbor list")
	tag := append([]byte(nil), alice.SignBytes(data, 2)...)
	allocs := testing.AllocsPerRun(200, func() {
		if !bob.Verify(p, 1) {
			t.Fatal("verify failed")
		}
		if !bob.VerifyBytes(data, tag, 1) {
			t.Fatal("byte tag rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Verify allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSignBytesTagAliasesRing documents the SignBytes contract: the tag is
// valid only until the next ring operation, so holders must copy it out
// (EncodeNeighborList appends it immediately).
func TestSignBytesTagAliasesRing(t *testing.T) {
	s := NewKeyServer(1)
	r := NewRing(1, s)
	tag := append([]byte(nil), r.SignBytes([]byte("a"), 2)...)
	again := r.SignBytes([]byte("a"), 2)
	if !bytes.Equal(tag, again) {
		t.Fatal("SignBytes not deterministic")
	}
	r.SignBytes([]byte("something else"), 2)
	if bytes.Equal(tag, again) {
		t.Fatal("returned tag did not alias the ring buffer; update the doc comment")
	}
}

func BenchmarkSign(b *testing.B) {
	s := NewKeyServer(1)
	r := NewRing(1, s)
	p := &packet.Packet{Type: packet.TypeAlert, Seq: 1, Sender: 1, Receiver: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Sign(p, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	s := NewKeyServer(1)
	alice := NewRing(1, s)
	bob := NewRing(2, s)
	p := &packet.Packet{Type: packet.TypeAlert, Seq: 1, Sender: 1, Receiver: 2}
	if err := alice.Sign(p, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !bob.Verify(p, 1) {
			b.Fatal("verify failed")
		}
	}
}

// TestRingStateCacheBounded touches more peers than the cache cap and
// checks retention stays at the cap, eviction is FIFO by insertion order,
// and an evicted peer's MACs re-derive identically — the cap must trade
// only CPU, never authentication results. It also pins the footprint: a
// cached peer is its ID and its two chaining values, inline in the ring's
// slices, with no heap object of its own.
func TestRingStateCacheBounded(t *testing.T) {
	s := NewKeyServer(1)
	r := NewRing(1, s)
	data := []byte("probe")
	first := append([]byte(nil), r.SignBytes(data, 2)...)
	for peer := field.NodeID(2); peer < field.NodeID(2+3*stateCacheCap); peer++ {
		r.SignBytes(data, peer)
	}
	if len(r.peers) != stateCacheCap || len(r.macKeys) != stateCacheCap {
		t.Errorf("cache holds %d peers and %d keys, want cap %d", len(r.peers), len(r.macKeys), stateCacheCap)
	}
	if slices.Contains(r.peers, 2) {
		t.Error("oldest peer survived 3x-cap thrash")
	}
	last := field.NodeID(2 + 3*stateCacheCap - 1)
	if !slices.Contains(r.peers, last) {
		t.Error("most recent peer was evicted")
	}
	again := r.SignBytes(data, 2) // re-derive after eviction
	if string(first) != string(again) {
		t.Errorf("MAC changed across eviction: %x -> %x", first, again)
	}

	if typ := reflect.TypeOf(r.macKeys).Elem(); !pointerFree(typ) {
		t.Errorf("a cached key (%v) holds a pointer: each peer keeps a heap object", typ)
	}
	const maxPeerBytes = 80
	if perPeer := unsafe.Sizeof(r.peers[0]) + unsafe.Sizeof(r.macKeys[0]); perPeer > maxPeerBytes {
		t.Errorf("a cached peer takes %d B, want at most %d", perPeer, maxPeerBytes)
	}
	held := uintptr(cap(r.peers))*unsafe.Sizeof(r.peers[0]) + uintptr(cap(r.macKeys))*unsafe.Sizeof(r.macKeys[0])
	if held > stateCacheCap*maxPeerBytes {
		t.Errorf("a full cache holds %d B of slices, want at most %d", held, stateCacheCap*maxPeerBytes)
	}
}

// pointerFree reports whether values of t hold no pointer, so a slice of
// them is one flat allocation.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

// TestRingMatchesHMAC holds the ring's midstate MACs to crypto/hmac over
// PairKey, for more peers than the cache holds: every peer is signed and
// verified twice, the second time after the FIFO has evicted it and the
// ring has derived its midstates again.
func TestRingMatchesHMAC(t *testing.T) {
	s := NewKeyServer(7)
	r := NewRing(3, s)
	const peers = 2*stateCacheCap + 5
	for round := range 2 {
		for peer := field.NodeID(10); peer < 10+peers; peer++ {
			data := []byte(fmt.Sprintf("round %d peer %d", round, peer))
			mac := hmac.New(sha256.New, s.PairKey(3, peer))
			mac.Write(data)
			want := mac.Sum(nil)[:packet.MACSize]
			if got := r.SignBytes(data, peer); !bytes.Equal(got, want) {
				t.Fatalf("round %d: SignBytes for peer %d = %x, crypto/hmac %x", round, peer, got, want)
			}
			if !r.VerifyBytes(data, want, peer) {
				t.Fatalf("round %d: VerifyBytes rejected crypto/hmac's tag for peer %d", round, peer)
			}
		}
	}
}

// TestRingsShareServerDifferential runs several rings on one key server,
// so every MAC and every derivation shares its digest and scratch, and
// interleaves Sign, Verify, SignBytes and VerifyBytes over more peers than
// a ring caches, so eviction and re-derivation both run. Every pair key
// must be crypto/hmac's HMAC-SHA256 of the master secret over lo‖hi, and
// every tag crypto/hmac's over that key, truncated; a tag one ring handed
// out must survive the other rings' MACs.
func TestRingsShareServerDifferential(t *testing.T) {
	const seed = 11
	var sb [8]byte
	binary.BigEndian.PutUint64(sb[:], seed)
	master := sha256.Sum256(sb[:])
	refKey := func(a, b field.NodeID) []byte {
		lo, hi := min(a, b), max(a, b)
		var ids [8]byte
		binary.BigEndian.PutUint32(ids[0:4], uint32(lo))
		binary.BigEndian.PutUint32(ids[4:8], uint32(hi))
		mac := hmac.New(sha256.New, master[:])
		mac.Write(ids[:])
		return mac.Sum(nil)
	}
	refTag := func(a, b field.NodeID, data []byte) []byte {
		mac := hmac.New(sha256.New, refKey(a, b))
		mac.Write(data)
		return mac.Sum(nil)[:packet.MACSize]
	}

	s := NewKeyServer(seed)
	rings := []*Ring{NewRing(1, s), NewRing(2, s), NewRing(3, s), NewRing(4, s)}
	const peers = 2*stateCacheCap + 7
	// held is the last SignBytes tag, not copied out: valid, and checked
	// after every other ring's step, until heldRing's own next operation.
	var held, heldWant []byte
	var heldRing *Ring
	for round := range 3 {
		for j := range peers {
			peer := field.NodeID(100 + (j*7+round*13)%peers)
			for i, r := range rings {
				if heldRing == r {
					heldRing = nil
				}
				if got, want := s.PairKey(r.Self(), peer), refKey(r.Self(), peer); !bytes.Equal(got, want) {
					t.Fatalf("PairKey(%d, %d) = %x, crypto/hmac %x", r.Self(), peer, got, want)
				}
				data := []byte(fmt.Sprintf("round %d ring %d peer %d", round, r.Self(), peer))
				want := refTag(r.Self(), peer, data)
				switch op := (round + j + i) % 4; op {
				case 0:
					p := &packet.Packet{Type: packet.TypeAlert, Seq: uint64(j), Origin: r.Self(), Sender: r.Self(), Receiver: peer, Payload: data}
					if err := r.Sign(p, peer); err != nil {
						t.Fatal(err)
					}
					auth, err := p.AppendAuthBytes(nil)
					if err != nil {
						t.Fatal(err)
					}
					if w := refTag(r.Self(), peer, auth); !bytes.Equal(p.MAC, w) {
						t.Fatalf("round %d: ring %d Sign for %d = %x, crypto/hmac %x", round, r.Self(), peer, p.MAC, w)
					}
				case 1:
					p := &packet.Packet{Type: packet.TypeAlert, Seq: uint64(j), Origin: peer, Sender: peer, Receiver: r.Self(), Payload: data}
					auth, err := p.AppendAuthBytes(nil)
					if err != nil {
						t.Fatal(err)
					}
					p.MAC = refTag(r.Self(), peer, auth)
					if !r.Verify(p, peer) {
						t.Fatalf("round %d: ring %d rejected crypto/hmac's packet tag from %d", round, r.Self(), peer)
					}
					p.MAC[0] ^= 1
					if r.Verify(p, peer) {
						t.Fatalf("round %d: ring %d accepted a flipped packet tag from %d", round, r.Self(), peer)
					}
				case 2:
					held, heldWant, heldRing = r.SignBytes(data, peer), want, r
					if !bytes.Equal(held, want) {
						t.Fatalf("round %d: ring %d SignBytes for %d = %x, crypto/hmac %x", round, r.Self(), peer, held, want)
					}
				case 3:
					if !r.VerifyBytes(data, want, peer) {
						t.Fatalf("round %d: ring %d rejected crypto/hmac's tag from %d", round, r.Self(), peer)
					}
					bad := append([]byte(nil), want...)
					bad[len(bad)-1] ^= 0x80
					if r.VerifyBytes(data, bad, peer) {
						t.Fatalf("round %d: ring %d accepted a flipped tag from %d", round, r.Self(), peer)
					}
				}
				if heldRing != nil && heldRing != r && !bytes.Equal(held, heldWant) {
					t.Fatalf("round %d: ring %d's SignBytes tag changed under ring %d: %x, want %x", round, heldRing.Self(), r.Self(), held, heldWant)
				}
			}
		}
	}
	for _, r := range rings {
		if len(r.peers) != stateCacheCap {
			t.Errorf("ring %d caches %d peers, want the cap %d: eviction never ran", r.Self(), len(r.peers), stateCacheCap)
		}
	}
}
