// Package trafficgen generates the paper's data workload (§6): every node
// acts as a data source emitting packets with exponentially distributed
// inter-arrival times (rate lambda); each source's destination is chosen at
// random and re-chosen with exponentially distributed holding times
// (rate mu).
package trafficgen

import (
	"time"

	"liteworp/internal/field"
	"liteworp/internal/sim"
)

// Config parameterizes one source.
type Config struct {
	// Lambda is the packet generation rate in packets/second
	// (paper Table 2: lambda = 1/10 s^-1).
	Lambda float64
	// Mu is the destination re-selection rate in 1/second
	// (paper Table 2: mu = 1/200 s^-1).
	Mu float64
	// PayloadBytes sizes each generated data payload.
	PayloadBytes int
}

// Source drives one node's traffic.
type Source struct {
	kernel *sim.Kernel
	cfg    Config
	self   field.NodeID
	// peers is the candidate-destination pool. When the caller's slice
	// contains self exactly once it is shared as-is (StartAll hands every
	// source the same N-element ID list, and copying it per source cost
	// O(N^2) memory across a big field) and selfPos marks the slot to skip;
	// otherwise it is a self-free copy. n is the usable candidate count.
	peers   []field.NodeID
	selfPos int
	n       int
	send    func(dest field.NodeID, payload []byte) error
	dest    field.NodeID
	stopped bool
	epoch   int // bumped on Stop so stale timers from before it stay dead
	sent    uint64
}

// New creates a source at node self choosing destinations among peers.
// send is invoked for each generated packet. Nodes in peers equal to self
// are skipped.
func New(k *sim.Kernel, self field.NodeID, peers []field.NodeID, cfg Config, send func(dest field.NodeID, payload []byte) error) *Source {
	s := &Source{kernel: k, cfg: cfg, self: self, send: send}
	selfCount := 0
	for _, p := range peers {
		if p == self {
			selfCount++
		}
	}
	switch selfCount {
	case 0:
		s.peers, s.n = peers, len(peers)
		s.selfPos = len(peers) + 1 // never skipped
	case 1:
		s.peers, s.n = peers, len(peers)-1
		for i, p := range peers {
			if p == self {
				s.selfPos = i
				break
			}
		}
	default:
		others := make([]field.NodeID, 0, len(peers)-selfCount)
		for _, p := range peers {
			if p != self {
				others = append(others, p)
			}
		}
		s.peers, s.n = others, len(others)
		s.selfPos = len(others) + 1
	}
	return s
}

// Start picks the first destination and schedules traffic. A source with no
// candidate peers or a non-positive lambda stays silent.
func (s *Source) Start() {
	if s.n == 0 || s.cfg.Lambda <= 0 {
		return
	}
	s.pickDestination()
	s.scheduleNext()
	if s.cfg.Mu > 0 {
		s.scheduleReselect()
	}
}

// Stop silences the source (pending timers become no-ops).
func (s *Source) Stop() {
	s.stopped = true
	s.epoch++
}

// Resume restarts a stopped source (e.g. once its node has rebooted and
// re-run discovery) with fresh inter-arrival draws. No-op on a running
// source.
func (s *Source) Resume() {
	if !s.stopped {
		return
	}
	s.stopped = false
	if s.n == 0 || s.cfg.Lambda <= 0 {
		return
	}
	s.scheduleNext()
	if s.cfg.Mu > 0 {
		s.scheduleReselect()
	}
}

// Sent returns the number of packets generated so far.
func (s *Source) Sent() uint64 { return s.sent }

// pickDestination draws uniformly over the n candidates. The draw bound
// and the chosen destination are identical to indexing a self-free copy
// (candidate i is the i-th non-self peer), so sharing the caller's slice
// is invisible to the RNG stream and the trace.
func (s *Source) pickDestination() {
	i := s.kernel.Rand().Intn(s.n)
	if i >= s.selfPos {
		i++
	}
	s.dest = s.peers[i]
}

func (s *Source) scheduleNext() {
	epoch := s.epoch
	s.kernel.After(s.kernel.ExpDuration(s.cfg.Lambda), func() {
		if s.stopped || epoch != s.epoch {
			return
		}
		payload := make([]byte, s.cfg.PayloadBytes)
		s.sent++
		_ = s.send(s.dest, payload)
		s.scheduleNext()
	})
}

func (s *Source) scheduleReselect() {
	epoch := s.epoch
	s.kernel.After(s.kernel.ExpDuration(s.cfg.Mu), func() {
		if s.stopped || epoch != s.epoch {
			return
		}
		s.pickDestination()
		s.scheduleReselect()
	})
}

// StartAll creates and starts a source per node ID with staggered phase:
// each source's first packet is additionally delayed by a uniform draw in
// [0, 1/lambda) so sources do not fire in lockstep. It returns the sources
// in the order of ids.
func StartAll(k *sim.Kernel, ids []field.NodeID, cfg Config, send func(from, dest field.NodeID, payload []byte) error) []*Source {
	out := make([]*Source, len(ids))
	for i, id := range ids {
		src := New(k, id, ids, cfg, func(dest field.NodeID, payload []byte) error {
			return send(id, dest, payload)
		})
		out[i] = src
		phase := time.Duration(0)
		if cfg.Lambda > 0 {
			phase = k.UniformDuration(time.Duration(float64(time.Second) / cfg.Lambda))
		}
		k.After(phase, src.Start)
	}
	return out
}
