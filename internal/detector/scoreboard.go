package detector

import (
	"liteworp/internal/field"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/watch"
)

// scoreboard is the minimal MalC analogue the statistical strategies
// share: a monotone per-node score, an Accusation per observation, and a
// one-shot threshold latch that hands the accused to the engine's
// response protocol. Unlike the watch buffer's windowed counters it never
// decays — the rival methods define no observation expiry — which keeps
// it free of timers and RNG (the determinism obligation: a scenario's
// radio schedule must not depend on which detector watched it).
//
// Each node's slot is dense by the host table's nbrIdx (see
// neighbor.Index): a node is interned once and every later observation is
// a slice load, no hashing.
type scoreboard struct {
	env       Env
	threshold int
	nodes     []scored
}

// scored is one node's slot: its score, whether it has crossed the
// threshold, and, for the zscore strategy, the degree it last announced
// (announced tells a first announcement from a repeat).
type scored struct {
	score     int
	degree    int
	fired     bool
	announced bool
}

// Index returns the dense neighbor index the slots are addressed by: the
// host table's.
func (s *scoreboard) Index() *neighbor.Index { return s.env.Table.Index() }

// slot interns id and returns its slot, growing the storage to hold it.
// The pointer is valid until the next slot call.
func (s *scoreboard) slot(id field.NodeID) *scored {
	i := s.Index().Intern(id)
	for int(i) >= len(s.nodes) {
		s.nodes = append(s.nodes, scored{})
	}
	return &s.nodes[i]
}

// accuse records one observation against accused, emits the Accusation,
// and fires the threshold callback exactly once when the score crosses.
// All slot mutation — including the latch — completes before the
// callbacks run: a callback that re-enters a detector can intern new
// nodes and grow the storage underneath a held slot.
func (s *scoreboard) accuse(accused field.NodeID, reason watch.Reason, key packet.Key) {
	n := s.slot(accused)
	n.score++
	val := n.score
	fire := !n.fired && val >= s.threshold
	if fire {
		n.fired = true
	}
	s.env.OnAccusation(Accusation{
		Accused: accused,
		Reason:  reason,
		MalC:    val,
		Key:     key,
		At:      s.env.Clock.Now(),
	})
	if fire {
		s.env.OnThreshold(accused)
	}
}
