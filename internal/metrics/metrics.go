// Package metrics collects the output parameters the paper reports (§6):
// packets dropped due to the wormhole, routes established and routes
// affected by the wormhole, and isolation latency ("from the time a
// malicious node starts a wormhole attack until it is completely isolated
// by all of its neighbors"), plus multi-run aggregation (the paper averages
// over 30 runs).
package metrics

import (
	"maps"
	"math"
	"sort"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/ordered"
)

// Sample is one point of a time series.
type Sample struct {
	At    time.Duration
	Value float64
}

// TimeSeries is an append-only series sampled at event times.
type TimeSeries struct {
	samples []Sample
}

// Record appends a sample. Samples must be recorded in nondecreasing time
// order (the discrete-event kernel guarantees this for event-driven use).
func (ts *TimeSeries) Record(at time.Duration, v float64) {
	ts.samples = append(ts.samples, Sample{At: at, Value: v})
}

// Len returns the number of samples.
func (ts *TimeSeries) Len() int { return len(ts.samples) }

// Samples returns a copy of the raw samples.
func (ts *TimeSeries) Samples() []Sample {
	out := make([]Sample, len(ts.samples))
	copy(out, ts.samples)
	return out
}

// At returns the value of the latest sample at or before t (step
// interpolation), or 0 before the first sample.
func (ts *TimeSeries) At(t time.Duration) float64 {
	idx := sort.Search(len(ts.samples), func(i int) bool { return ts.samples[i].At > t })
	if idx == 0 {
		return 0
	}
	return ts.samples[idx-1].Value
}

// Bucketize samples the series at multiples of step in (0, until], useful
// for plotting cumulative curves like Fig. 8.
func (ts *TimeSeries) Bucketize(step, until time.Duration) []Sample {
	if step <= 0 || until <= 0 {
		return nil
	}
	var out []Sample
	for t := step; t <= until; t += step {
		out = append(out, Sample{At: t, Value: ts.At(t)})
	}
	return out
}

// Summary holds basic statistics over a set of values.
type Summary struct {
	N        int
	Mean     float64
	Std      float64
	Min, Max float64
	Total    float64
	// CI95 is the 95% confidence half-width of the mean (normal
	// approximation, sample standard deviation), 0 when N < 2. The paper
	// averages 30 runs per point; the half-width says how much those 30
	// runs actually pin the mean down.
	CI95      float64
	HasValues bool
}

// MeanVar accumulates a value stream with Welford's online mean/variance
// algorithm, so experiment loops fold each run's value as it arrives
// instead of collecting a slice per figure.
type MeanVar struct {
	n        int
	mean, m2 float64
	total    float64
	min, max float64
}

// Add feeds one value.
func (a *MeanVar) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.total += x
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns how many values were added.
func (a *MeanVar) N() int { return a.n }

// Mean returns the running mean (0 with no values).
func (a *MeanVar) Mean() float64 { return a.mean }

// Summary freezes the stream into the Summary the experiment tables
// report: population Std, plus the 95% confidence half-width of the mean.
func (a *MeanVar) Summary() Summary {
	s := Summary{N: a.n}
	if a.n == 0 {
		return s
	}
	s.HasValues = true
	s.Mean = a.mean
	s.Total = a.total
	s.Min, s.Max = a.min, a.max
	s.Std = math.Sqrt(a.m2 / float64(a.n))
	if a.n > 1 {
		s.CI95 = 1.96 * math.Sqrt(a.m2/float64(a.n-1)/float64(a.n))
	}
	return s
}

// Collector gathers one simulation run's outputs.
type Collector struct {
	// Data-plane counters.
	DataOriginated     uint64 // data packets created by sources
	DataDelivered      uint64 // data packets that reached their destination
	DataDroppedAttack  uint64 // black-holed by a wormhole endpoint
	DataBlockedRevoked uint64 // refused because the next hop was revoked
	DataRejected       uint64 // dropped by LITEWORP inbound checks
	DataLostChannel    uint64 // lost to natural collisions (where countable)

	// Control-plane counters.
	RoutesEstablished uint64 // routes installed at sources
	WormholeRoutes    uint64 // routes that pass through a malicious node
	PhantomRoutes     uint64 // routes containing a hop that is not a real radio link

	// Detection counters.
	Accusations      uint64
	LocalRevocations uint64
	AlertsSent       uint64
	AlertRetries     uint64 // alert retransmissions (robustness against alert loss)
	Isolations       uint64
	FalseAccusations uint64 // accusations against honest nodes
	FalseIsolations  uint64 // honest nodes isolated by some neighbor

	// AccusationsByReason splits Accusations by observation kind
	// (fabrication, drop, neighbor-anomaly, range-violation) — the
	// detector comparison's per-strategy fingerprint. Nil until the
	// first accusation.
	AccusationsByReason map[string]uint64

	// CumulativeDropped tracks packets destroyed by the attack over time
	// (Fig. 8's Y axis).
	CumulativeDropped TimeSeries

	// AttackStart is when the wormhole began (isolation latency baseline).
	AttackStart time.Duration

	isolations map[field.NodeID]map[field.NodeID]time.Duration

	firstIsolation    time.Duration
	hasFirstIsolation bool
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{isolations: make(map[field.NodeID]map[field.NodeID]time.Duration)}
}

// RecordDrop notes an attack-caused packet loss at time at and advances the
// cumulative curve.
func (c *Collector) RecordDrop(at time.Duration) {
	c.DataDroppedAttack++
	c.CumulativeDropped.Record(at, float64(c.DataDroppedAttack))
}

// RecordAccusation counts one guard accusation, classified by the
// observation reason, noting whether the accused is honest (a false
// accusation).
func (c *Collector) RecordAccusation(reason string, honest bool) {
	c.Accusations++
	if honest {
		c.FalseAccusations++
	}
	if c.AccusationsByReason == nil {
		c.AccusationsByReason = make(map[string]uint64)
	}
	c.AccusationsByReason[reason]++
}

// FirstIsolation returns when the first isolation verdict anywhere in the
// network was recorded; ok is false while none has happened.
func (c *Collector) FirstIsolation() (time.Duration, bool) {
	return c.firstIsolation, c.hasFirstIsolation
}

// RecordIsolation notes that observer isolated accused at time at.
func (c *Collector) RecordIsolation(observer, accused field.NodeID, at time.Duration) {
	if !c.hasFirstIsolation {
		// Events arrive in nondecreasing kernel time, so the first call
		// is the network-wide first verdict.
		c.hasFirstIsolation = true
		c.firstIsolation = at
	}
	m, ok := c.isolations[accused]
	if !ok {
		m = make(map[field.NodeID]time.Duration)
		c.isolations[accused] = m
	}
	if _, dup := m[observer]; !dup {
		m[observer] = at
	}
	c.Isolations++
}

// AccusedNodes returns every node that at least one observer isolated.
func (c *Collector) AccusedNodes() []field.NodeID {
	return ordered.Keys(c.isolations)
}

// IsolatedBy returns a copy of the observers that isolated accused, with
// times (nil when none has).
func (c *Collector) IsolatedBy(accused field.NodeID) map[field.NodeID]time.Duration {
	return maps.Clone(c.isolations[accused])
}

// IsolatedCount returns how many observers isolated accused.
func (c *Collector) IsolatedCount(accused field.NodeID) int {
	return len(c.isolations[accused])
}

// IsolationLatency returns the time from AttackStart until every node in
// required has isolated accused — the paper's isolation latency. ok is
// false while any required observer has not isolated the accused.
func (c *Collector) IsolationLatency(accused field.NodeID, required []field.NodeID) (time.Duration, bool) {
	m := c.isolations[accused]
	if len(m) == 0 {
		return 0, false
	}
	var latest time.Duration
	for _, obs := range required {
		at, ok := m[obs]
		if !ok {
			return 0, false
		}
		if at > latest {
			latest = at
		}
	}
	if latest < c.AttackStart {
		return 0, true
	}
	return latest - c.AttackStart, true
}

// FractionDropped returns attack-destroyed packets over packets originated
// (Fig. 9's first output), 0 when nothing was sent.
func (c *Collector) FractionDropped() float64 {
	if c.DataOriginated == 0 {
		return 0
	}
	return float64(c.DataDroppedAttack) / float64(c.DataOriginated)
}

// FractionMaliciousRoutes returns wormhole routes over all routes
// (Fig. 9's second output), 0 when no routes formed.
func (c *Collector) FractionMaliciousRoutes() float64 {
	if c.RoutesEstablished == 0 {
		return 0
	}
	return float64(c.WormholeRoutes) / float64(c.RoutesEstablished)
}

// DeliveryRatio returns delivered/originated, 0 when nothing was sent.
func (c *Collector) DeliveryRatio() float64 {
	if c.DataOriginated == 0 {
		return 0
	}
	return float64(c.DataDelivered) / float64(c.DataOriginated)
}
