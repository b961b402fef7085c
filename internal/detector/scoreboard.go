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
// Scores and latches are dense slices addressed by the host table's
// nbrIdx (see neighbor.Index): accused nodes are interned once and every
// later observation is two slice loads, no hashing.
type scoreboard struct {
	env       Env
	threshold int
	score     []int
	fired     []bool
}

// Index returns the dense neighbor index the scores are addressed by: the
// host table's.
func (s *scoreboard) Index() *neighbor.Index { return s.env.Table.Index() }

// accuse records one observation against accused, emits the Accusation,
// and fires the threshold callback exactly once when the score crosses.
// All slice mutation — including the latch — completes before the
// callbacks run: a callback that re-enters a detector can intern new
// nodes and grow the storage underneath a held index.
func (s *scoreboard) accuse(accused field.NodeID, reason watch.Reason, key packet.Key) {
	i := s.Index().Intern(accused)
	for int(i) >= len(s.score) {
		s.score = append(s.score, 0)
		s.fired = append(s.fired, false)
	}
	s.score[i]++
	val := s.score[i]
	fire := !s.fired[i] && val >= s.threshold
	if fire {
		s.fired[i] = true
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
