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
//
// The server is also the scenario's one HMAC-SHA256 engine: every pair key
// it derives and every MAC its rings compute run on its one digest and its
// scratch buffers. It is therefore stateful and not safe for concurrent
// use: like watch.Log and routing.Floods, each scenario builds its own and
// drives it from that scenario's kernel alone.
type KeyServer struct {
	master hmacKey // the master secret as an HMAC key
	d      digest  // the SHA-256 digest every HMAC runs on
	// state is a marshalled SHA-256 state that has absorbed exactly one
	// block: its magic, its empty buffer and its 64-byte length are those
	// of every HMAC key's inner and outer state, so resume patches in a
	// key's chaining value at chainAt and unmarshals it.
	state []byte
	auth  []byte // reusable canonical-encoding buffer
}

// digest is a SHA-256 hash whose state can be saved and resumed.
type digest interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// hmacKey is an HMAC-SHA256 key reduced to what a MAC needs of it, which
// is what hmac.New precomputes: the SHA-256 chaining values after the
// key⊕ipad block (inner) and after the key⊕opad block (outer).
type hmacKey struct {
	inner, outer [sha256.Size]byte
}

// A marshalled SHA-256 state is a 4-byte magic, the eight 4-byte chaining
// words, a block of buffered input and the 8-byte length.
const (
	chainAt  = 4
	stateLen = chainAt + sha256.Size + sha256.BlockSize + 8
)

// NewKeyServer creates a key server from a master secret seed.
func NewKeyServer(seed uint64) *KeyServer {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seed)
	master := sha256.Sum256(b[:])
	s := &KeyServer{d: sha256.New().(digest)}
	s.derive(&s.master, master[:])
	// The digest now holds the master's outer state, one block absorbed
	// like every key's: the template resume patches. save has just
	// marshalled this digest, so the error is nil.
	s.state, _ = s.d.MarshalBinary()
	return s
}

// PairKey returns the shared key for nodes a and b: HMAC-SHA256 under the
// master secret over the 4-byte big-endian IDs, lower first. It is
// symmetric: PairKey(a,b) == PairKey(b,a).
func (s *KeyServer) PairKey(a, b field.NodeID) []byte {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[0:4], uint32(lo))
	binary.BigEndian.PutUint32(buf[4:8], uint32(hi))
	return s.hmac(nil, &s.master, buf[:])
}

// derive sets k to the HMAC key of a 32-byte secret, which is no longer
// than a block, so HMAC pads it as is; each pad block is absorbed by a
// fresh digest and its chaining value kept.
func (s *KeyServer) derive(k *hmacKey, secret []byte) {
	var pad [sha256.BlockSize]byte
	copy(pad[:], secret)
	for i := range pad {
		pad[i] ^= 0x36
	}
	s.save(&k.inner, pad[:])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	s.save(&k.outer, pad[:])
}

// save writes into chain the chaining value of a fresh digest that has
// absorbed block.
func (s *KeyServer) save(chain *[sha256.Size]byte, block []byte) {
	s.d.Reset()
	s.d.Write(block)
	st, err := s.d.MarshalBinary()
	if err != nil || len(st) != stateLen {
		panic(fmt.Sprintf("keys: SHA-256 state of %d bytes (%v), want %d", len(st), err, stateLen))
	}
	copy(chain[:], st[chainAt:])
}

// resume sets the digest to the one-block state whose chaining value is
// chain.
func (s *KeyServer) resume(chain *[sha256.Size]byte) {
	copy(s.state[chainAt:], chain[:])
	if err := s.d.UnmarshalBinary(s.state); err != nil {
		panic(fmt.Sprintf("keys: resume SHA-256 state: %v", err))
	}
}

// hmac returns HMAC-SHA256 over data under k, written over buf's backing
// when it has the capacity.
func (s *KeyServer) hmac(buf []byte, k *hmacKey, data []byte) []byte {
	s.resume(&k.inner)
	s.d.Write(data)
	buf = s.d.Sum(buf[:0])
	s.resume(&k.outer)
	s.d.Write(buf)
	return s.d.Sum(buf[:0])
}

// Ring is one node's view of the key material: its own ID plus, per
// peer, the HMAC key of their pairwise key, reduced to its two chaining
// values. A MAC runs on the server's engine, so the two key-block
// compressions are paid once per peer, and the steady-state cost of
// Sign/Verify is zero heap allocations.
//
// The cache is capped at stateCacheCap peers with FIFO eviction in
// insertion order (never map iteration, so runs stay deterministic): a
// node's signing peers are its one- and two-hop neighborhood, which is
// degree-bounded, but on 10k-node fields an unbounded cache would retain
// keys for every peer ever heard from. Eviction only costs a re-derive on
// the next use — PairKey is a pure function, so the MACs are unchanged.
type Ring struct {
	self   field.NodeID
	server *KeyServer
	// peers and macKeys are the cached peers and their HMAC keys, oldest
	// first until the cache is full; then a new peer takes the slot at
	// oldest, the slot of the peer cached first.
	peers   []field.NodeID
	macKeys []hmacKey
	oldest  int
	// sum is the ring's own MAC output: SignBytes hands it out, so a tag
	// one ring returned survives another ring's MACs.
	sum [sha256.Size]byte
}

// stateCacheCap bounds the per-ring key cache. It comfortably covers the
// two-hop neighborhood at the paper's densities (average degree ~8–15)
// while capping worst-case retention at about 4.4KB per node: 68 bytes a
// peer, its two chaining values and its ID, inline in the ring's slices.
const stateCacheCap = 64

// NewRing returns node self's key ring backed by the key server.
func NewRing(self field.NodeID, server *KeyServer) *Ring {
	return &Ring{self: self, server: server}
}

// Self returns the ring owner's ID.
func (r *Ring) Self() field.NodeID { return r.self }

// state returns the HMAC key shared with peer, deriving it on first use.
// It is owned by the ring and valid until the ring caches another peer.
func (r *Ring) state(peer field.NodeID) *hmacKey {
	for i, p := range r.peers {
		if p == peer {
			return &r.macKeys[i]
		}
	}
	i := len(r.peers)
	if i < stateCacheCap {
		r.peers = append(r.peers, peer)
		r.macKeys = append(r.macKeys, hmacKey{})
	} else {
		i = r.oldest
		r.peers[i] = peer
		r.oldest = (r.oldest + 1) % stateCacheCap
	}
	r.server.derive(&r.macKeys[i], r.server.PairKey(r.self, peer))
	return &r.macKeys[i]
}

// mac computes the truncated pairwise tag over data into the ring's MAC
// buffer. The result is only valid until the ring's next operation.
func (r *Ring) mac(data []byte, peer field.NodeID) []byte {
	return r.server.hmac(r.sum[:], r.state(peer), data)[:packet.MACSize]
}

// Sign computes the truncated pairwise MAC over a packet's AuthBytes and
// stores it in the packet, reusing the packet's MAC backing when it has
// capacity. The peer is the intended verifier.
func (r *Ring) Sign(p *packet.Packet, peer field.NodeID) error {
	auth, err := p.AppendAuthBytes(r.server.auth[:0])
	if err != nil {
		return fmt.Errorf("sign %v for %d: %w", p.Type, peer, err)
	}
	r.server.auth = auth
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
	auth, err := p.AppendAuthBytes(r.server.auth[:0])
	if err != nil {
		return false
	}
	r.server.auth = auth
	return hmac.Equal(r.mac(auth, peer), p.MAC)
}

// SignBytes computes a truncated MAC over raw bytes with the pairwise key
// shared with peer, for payload-level authentication (e.g. individual
// per-member authentication of a neighbor-list broadcast). The returned
// slice aliases the ring's MAC buffer: it is valid until the ring's next
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
