// Package detector defines the pluggable wormhole-detection boundary: the
// Detector interface through which the protocol engine feeds link-layer
// observations (overheard control transmissions, the node's own sends,
// authenticated neighbor announcements, radio interference), and the
// fixed set of strategies that consume them.
//
// The engine owns the response protocol — revocation, authenticated
// alerts, gamma-confidence isolation — and stays detector-agnostic: every
// strategy reports through the same Accusation/threshold callbacks, so
// metrics, tracing, and isolation work identically whichever detector is
// racing.
//
// Four strategies ship built in:
//
//   - liteworp: the paper's guard-based local monitoring (watch buffer,
//     fabrication/drop observations, windowed MalC) — the reference
//     implementation, bit-identical to the pre-extraction engine;
//   - zscore: per-node neighbor-count Z-score over announced neighbor
//     tables (the statistical rival of arXiv 2505.09405) — an anomalously
//     dense announced neighborhood is the wormhole's discovery-time
//     signature;
//   - range: position-based plausibility — a node whose transmission
//     claims a link longer than the radio range (forged previous hop, or
//     an impossible consecutive pair around itself in an accumulated
//     route) is a tunnel endpoint, in the spirit of the range-violation
//     tests surveyed in arXiv 0906.1245;
//   - none: the null detector (baseline; monitoring runs, nothing fires).
//
// Determinism obligations for implementations: observations arrive in
// kernel event order and must be processed with no wall clock, no global
// randomness, and no unordered map iteration with observable effects.
// Timers may only be armed through the Env clock; a detector
// that needs none of them (zscore, range, none) must draw no RNG at all,
// so scenarios differing only in detector choice replay identical radio
// schedules.
package detector

import (
	"fmt"
	"slices"

	"liteworp/internal/field"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
	"liteworp/internal/watch"
)

// Accusation is the event every detector emits on a malicious-activity
// observation; it is watch.Accusation so metrics and tracing consume all
// strategies' verdicts through one type.
type Accusation = watch.Accusation

// Built-in detector kinds, as accepted by Config.Kind and the -detector
// command-line flags.
const (
	KindLiteworp = "liteworp"
	KindZScore   = "zscore"
	KindRange    = "range"
	KindNone     = "none"
)

// Detector is one node's detection strategy. The engine applies its
// prechecks first — Overheard only sees control frames from live,
// unrevoked neighbors of the host, and never the host's own — so
// implementations start from "a monitorable neighbor transmitted this",
// and from the nbrIdx the engine resolved the sender to.
type Detector interface {
	// Name returns the kind that built this detector.
	Name() string
	// OwnSend notes a control packet the host node itself transmitted
	// (the host guards its own outgoing links).
	OwnSend(p *packet.Packet)
	// Overheard feeds one overheard control frame (promiscuous mode).
	// sidx is the sender's nbrIdx in Env.Table, where it is a direct
	// neighbor.
	Overheard(p *packet.Packet, sidx int32)
	// Announcement feeds an authenticated neighbor-list announcement:
	// neighbor from currently claims degree links. Fired after the
	// neighbor table has absorbed the announcement.
	Announcement(from field.NodeID, degree int)
	// Interference notes a CRC-failed reception at the host's radio.
	Interference()
}

// Positions is the coordinate oracle position-aware detectors consult
// (satisfied by *field.Field). Implementations must treat it read-only.
type Positions interface {
	// Position returns a node's coordinates, false if unknown.
	Position(id field.NodeID) (field.Point, bool)
	// InRangeScaled reports whether b can hear a transmission from a
	// whose range is scaled by factor.
	InRangeScaled(a, b field.NodeID, factor float64) bool
}

// Env is the host-node context a detector observes through. The engine
// fills every field.
type Env struct {
	// Clock is the host's virtual clock/scheduler (scope or kernel).
	Clock sim.Clock
	// Table is the host's secure two-hop neighbor table (read-only from
	// the detector's perspective except through the engine callbacks).
	Table *neighbor.Table
	// Positions grants position-aware strategies the deployment
	// coordinates.
	Positions Positions
	// DropFilter is consulted before a drop accusation is raised (the
	// engine's crash-vs-malice discriminator).
	DropFilter func(accused field.NodeID, key packet.Key) bool
	// Suspect reports whether the host has accepted any alert about the
	// neighbor at nbrIdx idx in Table; detectors must not arm forwarding
	// expectations against suspects.
	Suspect func(idx int32) bool
	// OnAccusation fires on every malicious-activity observation.
	OnAccusation func(Accusation)
	// OnThreshold fires once a node's score crosses the strategy's
	// revocation threshold; the engine responds (revoke + alerts).
	OnThreshold func(accused field.NodeID)
}

// Config selects and parameterizes a detection strategy. Only the
// LITEWORP strategy is parameterized; the zscore and range strategies run
// at fixed constants (see zscore.go and rangecheck.go).
type Config struct {
	// Kind names the strategy; empty selects KindLiteworp.
	Kind string
	// Watch configures the LITEWORP guard bookkeeping (tau, V_f, V_d,
	// C_t, T). Ignored by the rival strategies.
	Watch watch.Config
	// StrictFabricationCheck applies the paper's per-link fabrication
	// rule verbatim instead of the noise-robust heard-any refinement
	// (liteworp strategy only; see the core package ablations).
	StrictFabricationCheck bool
	// DisableDropDetection stops the liteworp strategy from arming
	// forwarding expectations (the paper's V_d = 0 ablation).
	DisableDropDetection bool
}

// kinds lists the built-in strategies, ascending.
var kinds = []string{KindLiteworp, KindNone, KindRange, KindZScore}

// Names returns the detector kinds, ascending.
func Names() []string { return slices.Clone(kinds) }

// Known reports whether kind names a detector ("" counts: it is the
// default).
func Known(kind string) bool {
	return kind == "" || slices.Contains(kinds, kind)
}

// Canonical resolves the empty default to its kind.
func Canonical(kind string) string {
	if kind == "" {
		return KindLiteworp
	}
	return kind
}

// New builds the strategy cfg.Kind selects. Unknown kinds error with the
// valid names.
func New(env Env, cfg Config) (Detector, error) {
	switch Canonical(cfg.Kind) {
	case KindLiteworp:
		return newLiteworpDetector(env, cfg), nil
	case KindNone:
		return newNoneDetector(env, cfg), nil
	case KindRange:
		return newRangeDetector(env), nil
	case KindZScore:
		return newZScoreDetector(env), nil
	}
	return nil, fmt.Errorf("detector: unknown kind %q (known: %v)", cfg.Kind, kinds)
}
