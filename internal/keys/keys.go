// Package keys provides the pairwise key management substrate LITEWORP
// assumes ("LITEWORP requires a pre-distribution pair-wise key management
// protocol"). A KeyServer deterministically derives a shared secret for
// every node pair from a master secret, standing in for the probabilistic
// predistribution schemes the paper cites ([18][19][20]); from LITEWORP's
// point of view the only requirement is that any two nodes can authenticate
// each other's unicasts, which HMAC-SHA256 (truncated to packet.MACSize)
// provides.
package keys

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"

	"liteworp/internal/field"
	"liteworp/internal/packet"
)

// KeyServer derives pairwise keys. It models offline predistribution: keys
// are available from deployment time onward and derivation causes no
// network traffic (the paper: "the key management does not incur any
// overhead during the normal failure-free functioning of the network").
type KeyServer struct {
	master []byte
}

// NewKeyServer creates a key server from a master secret seed.
func NewKeyServer(seed uint64) *KeyServer {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seed)
	sum := sha256.Sum256(b[:])
	return &KeyServer{master: sum[:]}
}

// PairKey returns the shared key for nodes a and b. It is symmetric:
// PairKey(a,b) == PairKey(b,a).
func (s *KeyServer) PairKey(a, b field.NodeID) []byte {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	mac := hmac.New(sha256.New, s.master)
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[0:4], uint32(lo))
	binary.BigEndian.PutUint32(buf[4:8], uint32(hi))
	mac.Write(buf[:])
	return mac.Sum(nil)
}

// Ring is one node's view of the key material: its own ID plus, per
// peer, the two SHA-256 midstates of the HMAC over their pairwise key: the
// states after the key⊕ipad and the key⊕opad blocks, which is what
// hmac.New precomputes. A MAC resumes the inner state on the ring's one
// digest, writes the data and sums, then resumes the outer state, writes
// that sum and sums: the two key-block compressions are paid once per
// peer, and Sum appends into a reusable buffer, so the steady-state cost
// of Sign/Verify is zero heap allocations.
//
// The cache is capped at stateCacheCap peers with FIFO eviction in
// insertion order (never map iteration, so runs stay deterministic): a
// node's signing peers are its one- and two-hop neighborhood, which is
// degree-bounded, but on 10k-node fields an unbounded cache would retain
// midstates for every peer ever heard from. Eviction only costs a
// re-derive on the next use — PairKey is a pure function, so the MACs are
// unchanged.
type Ring struct {
	self   field.NodeID
	server *KeyServer
	// peers and pads are the cached peers and their midstates, oldest
	// first until the cache is full; then a new peer takes the slot at
	// oldest, the slot of the peer cached first.
	peers  []field.NodeID
	pads   []*midstates
	oldest int
	d      digest // the SHA-256 digest every MAC runs on
	sum    []byte // reusable digest buffer for d.Sum(sum[:0])
	auth   []byte // reusable canonical-encoding buffer
}

// digest is a SHA-256 hash whose state can be saved and resumed.
type digest interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// midstates are a peer's HMAC inner and outer SHA-256 states, marshalled.
type midstates struct {
	inner, outer [stateLen]byte
}

// stateLen is the length of a marshalled SHA-256 state: a 4-byte magic,
// the eight 4-byte chaining words, a block of buffered input and the
// 8-byte length.
const stateLen = 4 + 8*4 + sha256.BlockSize + 8

// stateCacheCap bounds the per-ring midstate cache. It comfortably covers
// the two-hop neighborhood at the paper's densities (average degree ~8–15)
// while capping worst-case retention at ~15KB per node: about 236 bytes a
// peer, its midstates in a 224-byte allocation and its slots in peers and
// pads.
const stateCacheCap = 64

// NewRing returns node self's key ring backed by the key server.
func NewRing(self field.NodeID, server *KeyServer) *Ring {
	return &Ring{self: self, server: server, d: sha256.New().(digest)}
}

// Self returns the ring owner's ID.
func (r *Ring) Self() field.NodeID { return r.self }

// state returns the HMAC midstates of the pairwise key shared with peer,
// deriving them on first use. They are owned by the ring and
// single-threaded like everything above the kernel.
func (r *Ring) state(peer field.NodeID) *midstates {
	for i, p := range r.peers {
		if p == peer {
			return r.pads[i]
		}
	}
	var m *midstates
	if len(r.peers) < stateCacheCap {
		m = new(midstates)
		r.peers = append(r.peers, peer)
		r.pads = append(r.pads, m)
	} else {
		m = r.pads[r.oldest]
		r.peers[r.oldest] = peer
		r.oldest = (r.oldest + 1) % stateCacheCap
	}
	var pad [sha256.BlockSize]byte
	copy(pad[:], r.server.PairKey(r.self, peer)) // 32 bytes: no longer than a block, so HMAC pads the key as is
	for i := range pad {
		pad[i] ^= 0x36
	}
	r.save(m.inner[:], pad[:])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	r.save(m.outer[:], pad[:])
	return m
}

// save writes into dst the state of a fresh digest that has absorbed block.
func (r *Ring) save(dst, block []byte) {
	r.d.Reset()
	r.d.Write(block)
	st, err := r.d.MarshalBinary()
	if err != nil || len(st) != len(dst) {
		panic(fmt.Sprintf("keys: SHA-256 state of %d bytes (%v), want %d", len(st), err, len(dst)))
	}
	copy(dst, st)
}

// resume sets the ring's digest to a state save wrote.
func (r *Ring) resume(state []byte) {
	if err := r.d.UnmarshalBinary(state); err != nil {
		panic(fmt.Sprintf("keys: resume SHA-256 state: %v", err))
	}
}

// mac computes the truncated pairwise tag over data into the ring's reused
// digest buffer. The result is only valid until the next Ring operation.
func (r *Ring) mac(data []byte, peer field.NodeID) []byte {
	m := r.state(peer)
	r.resume(m.inner[:])
	r.d.Write(data)
	r.sum = r.d.Sum(r.sum[:0])
	r.resume(m.outer[:])
	r.d.Write(r.sum)
	r.sum = r.d.Sum(r.sum[:0])
	return r.sum[:packet.MACSize]
}

// Sign computes the truncated pairwise MAC over a packet's AuthBytes and
// stores it in the packet, reusing the packet's MAC backing when it has
// capacity. The peer is the intended verifier.
func (r *Ring) Sign(p *packet.Packet, peer field.NodeID) error {
	auth, err := p.AppendAuthBytes(r.auth[:0])
	if err != nil {
		return fmt.Errorf("sign %v for %d: %w", p.Type, peer, err)
	}
	r.auth = auth
	tag := r.mac(auth, peer)
	p.MAC = append(p.MAC[:0], tag...)
	return nil
}

// Verify checks that p carries a valid MAC computed with the key shared
// between this ring's owner and peer.
func (r *Ring) Verify(p *packet.Packet, peer field.NodeID) bool {
	if len(p.MAC) != packet.MACSize {
		return false
	}
	auth, err := p.AppendAuthBytes(r.auth[:0])
	if err != nil {
		return false
	}
	r.auth = auth
	return hmac.Equal(r.mac(auth, peer), p.MAC)
}

// SignBytes computes a truncated MAC over raw bytes with the pairwise key
// shared with peer, for payload-level authentication (e.g. individual
// per-member authentication of a neighbor-list broadcast). The returned
// slice aliases the ring's digest buffer: it is valid until the next Ring
// operation, so callers that keep it must copy (append) it out.
func (r *Ring) SignBytes(data []byte, peer field.NodeID) []byte {
	return r.mac(data, peer)
}

// VerifyBytes checks a MAC produced by SignBytes on the peer's side.
func (r *Ring) VerifyBytes(data, tag []byte, peer field.NodeID) bool {
	if len(tag) != packet.MACSize {
		return false
	}
	return hmac.Equal(r.mac(data, peer), tag)
}
