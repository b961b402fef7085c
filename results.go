package liteworp

import (
	"fmt"
	"strings"
	"time"

	"liteworp/internal/metrics"
	"liteworp/internal/ordered"
)

// Sample is one point of a cumulative time series (absolute virtual time).
type Sample = metrics.Sample

// MaliciousOutcome summarizes LITEWORP's handling of one attacker.
type MaliciousOutcome struct {
	// ID is the compromised node.
	ID NodeID
	// HonestNeighbors is how many honest radio neighbors it has — the
	// observers that must all isolate it for full isolation.
	HonestNeighbors int
	// IsolatedByCount is how many nodes have isolated it so far.
	IsolatedByCount int
	// Detected reports whether at least one node isolated it.
	Detected bool
	// FullyIsolated reports whether every honest neighbor isolated it —
	// the paper's isolation criterion.
	FullyIsolated bool
	// IsolationLatency is the time from attack start until full
	// isolation (valid when FullyIsolated).
	IsolationLatency time.Duration
}

// DetectorStats is the compact per-run summary of the detection plane for
// the configured strategy — the unit of comparison when racing detectors
// under identical seeds and attacks.
type DetectorStats struct {
	// Detector is the strategy that produced these numbers ("liteworp",
	// "zscore", "range", "none"; "disabled" when the protocol is off).
	Detector string
	// Accusations counts every guard observation; FalseAccusations the
	// subset against honest nodes.
	Accusations      uint64
	FalseAccusations uint64
	// ByReason splits accusations by observation kind (fabrication,
	// drop, neighbor-anomaly, range-violation) — each strategy's
	// fingerprint. Nil when nothing was accused.
	ByReason map[string]uint64
	// FalselyIsolatedNodes counts distinct honest nodes isolated by at
	// least one observer (the false-positive cost of the strategy).
	FalselyIsolatedNodes int
	// Detected reports whether any isolation verdict fired;
	// TimeToFirstIsolation is from attack start to that first verdict
	// (zero when it predates the attack — only false positives can).
	Detected             bool
	TimeToFirstIsolation time.Duration
}

// Results is an immutable snapshot of a scenario's outputs — the paper's
// §6 output parameters.
type Results struct {
	// Params echoes the configuration that produced these results.
	Params Params
	// Now is the virtual time of the snapshot; OperationalStart and
	// AttackAt anchor the phases.
	Now              time.Duration
	OperationalStart time.Duration
	AttackAt         time.Duration

	// Data-plane outcomes.
	DataOriginated     uint64
	DataDelivered      uint64
	DataDroppedAttack  uint64 // destroyed by the wormhole (incl. blocked cached-route tail)
	DataRejected       uint64 // refused by LITEWORP inbound checks
	DataBlockedRevoked uint64 // outbound refusals to revoked nodes

	// Control-plane outcomes.
	RoutesEstablished uint64
	WormholeRoutes    uint64
	// PhantomRoutes counts routes containing a hop that is not a real
	// radio link — the signature of the high-power and relay modes
	// (packets sent along such a hop can never arrive).
	PhantomRoutes uint64

	// Detection outcomes.
	Accusations      uint64
	FalseAccusations uint64
	LocalRevocations uint64
	AlertsSent       uint64
	// AlertRetries counts alert retransmissions — nonzero means the
	// detection plane had to work around alert loss.
	AlertRetries uint64
	// FalseIsolations counts (observer, accused) isolation events whose
	// accused is honest; FalselyIsolatedNodes counts the distinct honest
	// nodes isolated by at least one observer (the event count amplifies
	// through alert endorsements, so the node count is the better gauge
	// of collateral damage).
	FalseIsolations      uint64
	FalselyIsolatedNodes int

	// Derived fractions (Fig. 9's Y axes).
	FractionDropped  float64
	FractionWormhole float64
	DeliveryRatio    float64

	// DroppedSeries is the cumulative attack-destroyed packet count over
	// absolute time (Fig. 8's curve).
	DroppedSeries []Sample

	// Bandwidth is the empirical on-air byte breakdown, validating the
	// paper's claim that LITEWORP's overhead is confined to one-time
	// discovery plus alerts on detection.
	Bandwidth BandwidthBreakdown

	// Malicious summarizes each attacker; DetectionRatio is the fraction
	// fully isolated.
	Malicious      []MaliciousOutcome
	DetectionRatio float64

	// Detector summarizes the detection plane for the configured
	// strategy.
	Detector DetectorStats

	// Fault-injection outcomes. FaultEvents counts injector actions that
	// have executed (crashes, reboots, flaps, restores); NodeDowntime is
	// each crashed node's accumulated down time (open intervals count up
	// to the snapshot). Both are zero/nil in fault-free runs.
	FaultEvents  int
	NodeDowntime map[NodeID]time.Duration
}

// BandwidthBreakdown classifies on-air bytes by purpose.
type BandwidthBreakdown struct {
	// DiscoveryBytes covers HELLO, HELLO-REPLY, and neighbor-list frames
	// (one-time, at deployment).
	DiscoveryBytes uint64
	// ControlBytes covers routing REQ/REP traffic.
	ControlBytes uint64
	// DataBytes covers application payload frames.
	DataBytes uint64
	// AlertBytes covers LITEWORP accusation/endorsement alerts (only
	// after detections).
	AlertBytes uint64
	// TunnelBytes covers the attackers' out-of-band transfers.
	TunnelBytes uint64
	// TotalBytes is everything put on the air.
	TotalBytes uint64
}

// OverheadFraction returns LITEWORP's share of the total on-air bytes:
// discovery plus alerts (the protocol's only transmissions) over all
// traffic. Zero when nothing was transmitted.
func (b BandwidthBreakdown) OverheadFraction() float64 {
	if b.TotalBytes == 0 {
		return 0
	}
	return float64(b.DiscoveryBytes+b.AlertBytes) / float64(b.TotalBytes)
}

// DroppedAt returns the cumulative dropped count at absolute time t.
func (r *Results) DroppedAt(t time.Duration) float64 {
	var last float64
	for _, s := range r.DroppedSeries {
		if s.At > t {
			break
		}
		last = s.Value
	}
	return last
}

// MaxIsolationLatency returns the largest isolation latency among fully
// isolated attackers, and whether every attacker was fully isolated.
func (r *Results) MaxIsolationLatency() (time.Duration, bool) {
	all := len(r.Malicious) > 0
	var max time.Duration
	for _, m := range r.Malicious {
		if !m.FullyIsolated {
			all = false
			continue
		}
		if m.IsolationLatency > max {
			max = m.IsolationLatency
		}
	}
	return max, all
}

// String renders a human-readable report.
func (r *Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "liteworp run: N=%d M=%d attack=%v liteworp=%v t=%v\n",
		r.Params.NumNodes, r.Params.NumMalicious, r.Params.Attack, r.Params.Liteworp, r.Now)
	fmt.Fprintf(&b, "  data: originated=%d delivered=%d (ratio %.3f) dropped-by-attack=%d rejected=%d\n",
		r.DataOriginated, r.DataDelivered, r.DeliveryRatio, r.DataDroppedAttack, r.DataRejected)
	fmt.Fprintf(&b, "  routes: established=%d wormhole=%d (fraction %.3f) phantom=%d\n",
		r.RoutesEstablished, r.WormholeRoutes, r.FractionWormhole, r.PhantomRoutes)
	fmt.Fprintf(&b, "  detection: accusations=%d (false %d) revocations=%d alerts=%d (+%d retries) false-isolations=%d\n",
		r.Accusations, r.FalseAccusations, r.LocalRevocations, r.AlertsSent, r.AlertRetries, r.FalseIsolations)
	fmt.Fprintf(&b, "  detector %s:", r.Detector.Detector)
	if len(r.Detector.ByReason) > 0 {
		for _, reason := range ordered.Keys(r.Detector.ByReason) {
			fmt.Fprintf(&b, " %s=%d", reason, r.Detector.ByReason[reason])
		}
	} else {
		fmt.Fprintf(&b, " no accusations")
	}
	if r.Detector.Detected {
		fmt.Fprintf(&b, " first-isolation=+%v", r.Detector.TimeToFirstIsolation.Round(time.Millisecond))
	}
	if r.Detector.FalselyIsolatedNodes > 0 {
		fmt.Fprintf(&b, " falsely-isolated-nodes=%d", r.Detector.FalselyIsolatedNodes)
	}
	fmt.Fprintf(&b, "\n")
	if r.FaultEvents > 0 || len(r.NodeDowntime) > 0 {
		var total time.Duration
		for _, id := range ordered.Keys(r.NodeDowntime) {
			total += r.NodeDowntime[id]
		}
		fmt.Fprintf(&b, "  faults: events=%d nodes-with-downtime=%d total-downtime=%v\n",
			r.FaultEvents, len(r.NodeDowntime), total.Round(time.Millisecond))
	}
	for _, m := range r.Malicious {
		status := "undetected"
		if m.FullyIsolated {
			status = fmt.Sprintf("fully isolated in %v", m.IsolationLatency.Round(time.Millisecond))
		} else if m.Detected {
			status = fmt.Sprintf("isolated by %d/%d neighbors", m.IsolatedByCount, m.HonestNeighbors)
		}
		fmt.Fprintf(&b, "  attacker %d: %s\n", m.ID, status)
	}
	return b.String()
}
