// Package liteworp is a from-scratch Go reproduction of
//
//	Khalil, Bagchi, Shroff: "LITEWORP: A Lightweight Countermeasure for
//	the Wormhole Attack in Multihop Wireless Networks", DSN 2005.
//
// It bundles a deterministic discrete-event wireless network simulator
// (radio medium with collision losses, secure two-hop neighbor discovery,
// DSR-style on-demand routing, exponential traffic sources), the five
// wormhole attack modes of the paper's taxonomy, and the LITEWORP
// detection-and-isolation protocol itself: local monitoring by guard
// nodes, malicious counters, authenticated alerts, and gamma-confidence
// isolation.
//
// The typical entry point is a Scenario:
//
//	params := liteworp.DefaultParams()
//	params.NumMalicious = 2
//	params.Attack = liteworp.AttackOutOfBand
//	sc, err := liteworp.NewScenario(params)
//	if err != nil { ... }
//	res, err := sc.Run()
//	fmt.Println(res.DetectionRatio, res.FractionDropped)
//
// Analytical counterparts of the paper's coverage and cost analysis (§5)
// live in the Analysis* functions, which mirror Figures 5, 6(a), 6(b) and
// the memory/bandwidth cost model.
package liteworp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"liteworp/internal/attack"
	"liteworp/internal/detector"
	"liteworp/internal/field"
	"liteworp/internal/packet"
)

// NodeID identifies a node (4 bytes on the wire, as in the paper's cost
// analysis).
type NodeID = field.NodeID

// AttackMode selects one of the paper's five wormhole launch techniques
// (§3, Table 1).
type AttackMode int

// Attack modes.
const (
	AttackNone AttackMode = iota
	AttackEncapsulation
	AttackOutOfBand
	AttackHighPower
	AttackRelay
	AttackRushing
)

// String names the attack mode.
func (m AttackMode) String() string { return m.internal().String() }

func (m AttackMode) internal() attack.Mode {
	switch m {
	case AttackEncapsulation:
		return attack.ModeEncapsulation
	case AttackOutOfBand:
		return attack.ModeOutOfBand
	case AttackHighPower:
		return attack.ModeHighPower
	case AttackRelay:
		return attack.ModeRelay
	case AttackRushing:
		return attack.ModeRushing
	default:
		return attack.ModeNone
	}
}

// RoutingStyle selects the on-demand routing flavor; the paper names both
// DSR (source-routed data) and AODV (hop-by-hop forwarding tables) as
// wormhole-vulnerable targets.
type RoutingStyle int

// Routing styles.
const (
	// RoutingSourceRouted is DSR-flavored: data packets carry the full
	// route (the default).
	RoutingSourceRouted RoutingStyle = iota
	// RoutingHopByHop is AODV-flavored: REQ/REP establish per-node
	// forwarding tables and data packets carry no route.
	RoutingHopByHop
)

// String names the routing style.
func (rs RoutingStyle) String() string {
	if rs == RoutingHopByHop {
		return "hop-by-hop"
	}
	return "source-routed"
}

// PrevHopChoice is the tunnel exit's previous-hop strategy (§4.2.3).
type PrevHopChoice int

// Strategies for the announced previous hop at a tunnel exit: claim the
// colluding entrance (rejected outright by two-hop-aware receivers) or
// forge one of the exit's real neighbors (caught by that link's guards).
const (
	PrevHopForgeNeighbor PrevHopChoice = iota
	PrevHopClaimColluder
)

// Params configures a Scenario. The zero value is not valid; start from
// DefaultParams, which encodes the paper's Table 2.
type Params struct {
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64

	// --- topology (Table 2) ---

	// NumNodes is the network size N (paper: 20, 50, 100, 150).
	NumNodes int
	// AvgNeighbors is the target average degree N_B (paper: 8). The
	// field side is derived from it.
	AvgNeighbors float64
	// TxRange is the communication range r in meters (paper: 30 m).
	TxRange float64

	// --- channel ---

	// BandwidthBps is the channel bandwidth (paper: 40 kbps).
	BandwidthBps float64
	// CollisionPc0 is the collision probability at CollisionNB0
	// neighbors, growing linearly with the receiver's degree. Zero
	// disables collision losses. Note: the paper's *analysis* uses a
	// conservative Pc = 0.05 at N_B = 3 (see the Analysis* functions);
	// the simulation default is a contention-realistic ~0.5% at N_B = 8,
	// consistent with the low-rate 40 kbps workload and with the paper's
	// simulation outcomes (100% detection, negligible false alarms).
	CollisionPc0 float64
	// CollisionNB0 is the reference degree (paper: 3); it must be
	// positive when CollisionPc0 is.
	CollisionNB0 float64
	// CollisionMax caps the loss probability; it must lie in (0, 1] when
	// CollisionPc0 is positive.
	CollisionMax float64
	// AirtimeChannel replaces the probabilistic collision model with the
	// physical contention model: collisions emerge from actual frame
	// airtime overlap at each receiver (with CSMA carrier sensing), the
	// way they do in the paper's ns-2 substrate. CollisionPc0 then acts
	// as a residual noise floor (set it to 0 for pure contention).
	AirtimeChannel bool

	// --- LITEWORP ---

	// Liteworp enables the protocol; false runs the unprotected baseline.
	Liteworp bool
	// Detector selects the detection strategy fed by the monitoring
	// plane: "liteworp" (the paper's guard logic, the default when
	// empty), "zscore" (neighbor-count anomaly over announced tables),
	// "range" (position-based link plausibility), or "none" (monitoring
	// without detection). All strategies share the engine's acceptance
	// checks and response protocol, so runs differ only in what gets
	// accused. Ignored when Liteworp is false.
	Detector string
	// Gamma is the detection confidence index (paper: 2..8).
	Gamma int
	// WatchTimeout is tau, the forwarding deadline guards enforce.
	WatchTimeout time.Duration
	// FabricationIncrement (V_f) and DropIncrement (V_d) weight MalC.
	FabricationIncrement int
	DropIncrement        int
	// MalCThreshold is C_t.
	MalCThreshold int
	// MalCWindow is T, the observation window (paper: 200 time units).
	MalCWindow time.Duration

	// --- ablations (default off; see DESIGN.md) ---

	// StrictFabrication applies the paper's per-link fabrication rule
	// verbatim instead of the noise-robust heard-any refinement.
	StrictFabrication bool
	// DisableTwoHopCheck removes the second-hop legitimacy check.
	DisableTwoHopCheck bool
	// DisableDropDetection removes guard forwarding expectations (V_d=0).
	DisableDropDetection bool

	// --- routing & traffic (Table 2) ---

	// RouteTimeout is TOutRoute (paper: 50 s).
	RouteTimeout time.Duration
	// Routing selects DSR-style source routing (default) or AODV-style
	// hop-by-hop forwarding.
	Routing RoutingStyle
	// Lambda is the per-node data rate (paper: 1/10 s^-1).
	Lambda float64
	// Mu is the destination re-selection rate (paper: 1/200 s^-1).
	Mu float64
	// PayloadBytes sizes generated data packets, at most
	// packet.MaxPayloadLen (the wire format's payload length field).
	PayloadBytes int
	// ForwardJitter is the REQ rebroadcast backoff for honest nodes.
	ForwardJitter time.Duration

	// --- attack ---

	// NumMalicious is M (paper: 0..4). Malicious nodes are placed more
	// than two hops apart, as in the paper's simulations.
	NumMalicious int
	// Attack selects the wormhole mode.
	Attack AttackMode
	// PrevHop selects the tunnel-exit strategy.
	PrevHop PrevHopChoice
	// AttackStart is when malicious behavior activates, measured from
	// the start of the operational phase (paper: 50 s). It is never
	// negative: secure neighbor discovery runs attack-free.
	AttackStart time.Duration
	// HighPowerFactor scales the attacker's range in high-power mode.
	HighPowerFactor float64
	// DropProbability selects selective data dropping at wormhole
	// endpoints; 0 (default) drops everything, 0 < q < 1 drops each
	// packet with probability q.
	DropProbability float64
	// SmartAttacker enables the paper's "smarter M2" evasion: tunnel
	// exits also transmit a cover copy of each tunneled REP so drop
	// detection never fires against them (fabrication detection still
	// does).
	SmartAttacker bool

	// --- run ---

	// Duration is the operational-phase length to simulate (the paper
	// plots to 2000 s).
	Duration time.Duration

	// DynamicJoin enables the paper's §7 extension: nodes added after
	// deployment (Scenario.AddNodeAt) complete a secure join handshake
	// with their new neighborhood instead of being rejected as strangers.
	DynamicJoin bool
}

// DefaultParams returns the paper's Table 2 configuration: N=100 nodes at
// N_B=8 average degree, r=30 m, 40 kbps channel, lambda=1/10, mu=1/200,
// TOutRoute=50 s, gamma=2, T=200 s, attack at 50 s, out-of-band wormhole,
// LITEWORP enabled.
func DefaultParams() Params {
	return Params{
		Seed:                 1,
		NumNodes:             100,
		AvgNeighbors:         8,
		TxRange:              30,
		BandwidthBps:         40_000,
		CollisionPc0:         0.002,
		CollisionNB0:         3,
		CollisionMax:         0.2,
		Liteworp:             true,
		Gamma:                2,
		WatchTimeout:         500 * time.Millisecond,
		FabricationIncrement: 3,
		DropIncrement:        1,
		MalCThreshold:        16,
		MalCWindow:           200 * time.Second,
		RouteTimeout:         50 * time.Second,
		Lambda:               1.0 / 10,
		Mu:                   1.0 / 200,
		PayloadBytes:         32,
		ForwardJitter:        30 * time.Millisecond,
		NumMalicious:         2,
		Attack:               AttackOutOfBand,
		PrevHop:              PrevHopForgeNeighbor,
		AttackStart:          50 * time.Second,
		HighPowerFactor:      3,
		Duration:             500 * time.Second,
	}
}

// Validate checks parameter sanity. It is the one gate on the values the
// protocol layers run at: no layer below re-defaults a zero or negative
// value.
func (p Params) Validate() error {
	if p.NumNodes < 2 {
		return fmt.Errorf("liteworp: NumNodes = %d, need at least 2", p.NumNodes)
	}
	if p.AvgNeighbors <= 0 || p.TxRange <= 0 {
		return fmt.Errorf("liteworp: AvgNeighbors and TxRange must be positive")
	}
	if p.NumMalicious < 0 || p.NumMalicious >= p.NumNodes {
		return fmt.Errorf("liteworp: NumMalicious = %d out of range", p.NumMalicious)
	}
	if p.NumMalicious > 0 && p.Attack == AttackNone {
		return fmt.Errorf("liteworp: NumMalicious > 0 requires an attack mode")
	}
	if minNeeded := minMaliciousFor(p.Attack); p.NumMalicious > 0 && p.NumMalicious < minNeeded {
		return fmt.Errorf("liteworp: attack %v needs at least %d compromised nodes", p.Attack, minNeeded)
	}
	if p.Duration <= 0 {
		return fmt.Errorf("liteworp: Duration must be positive")
	}
	if p.Gamma < 1 {
		return fmt.Errorf("liteworp: Gamma must be >= 1")
	}
	if !detector.Known(p.Detector) {
		return fmt.Errorf("liteworp: unknown detector %q (known: %s)",
			p.Detector, strings.Join(detector.Names(), ", "))
	}
	// Range checks are written so that NaN, for which every comparison
	// is false, fails them.
	if !(p.DropProbability >= 0 && p.DropProbability <= 1) {
		return fmt.Errorf("liteworp: DropProbability = %g, want [0, 1]", p.DropProbability)
	}
	if p.Liteworp && (p.WatchTimeout <= 0 || p.MalCWindow <= 0) {
		return fmt.Errorf("liteworp: WatchTimeout and MalCWindow must be positive")
	}
	if p.Liteworp && (p.FabricationIncrement <= 0 || p.DropIncrement <= 0 || p.MalCThreshold <= 0) {
		return fmt.Errorf("liteworp: FabricationIncrement, DropIncrement and MalCThreshold must be positive")
	}
	if p.RouteTimeout <= 0 {
		return fmt.Errorf("liteworp: RouteTimeout must be positive")
	}
	// A zero backoff is legal: the rushing attacker runs with none.
	if p.ForwardJitter < 0 {
		return fmt.Errorf("liteworp: ForwardJitter = %v, must not be negative", p.ForwardJitter)
	}
	if p.BandwidthBps <= 0 {
		return fmt.Errorf("liteworp: BandwidthBps must be positive")
	}
	// A zero rate is legal: Lambda = 0 generates no traffic, Mu = 0 keeps
	// each source's first destination.
	if !(p.Lambda >= 0 && p.Lambda <= math.MaxFloat64) || !(p.Mu >= 0 && p.Mu <= math.MaxFloat64) {
		return fmt.Errorf("liteworp: Lambda = %g and Mu = %g must be finite and not negative", p.Lambda, p.Mu)
	}
	if p.PayloadBytes < 0 || p.PayloadBytes > packet.MaxPayloadLen {
		return fmt.Errorf("liteworp: PayloadBytes = %d, want [0, %d]", p.PayloadBytes, packet.MaxPayloadLen)
	}
	if p.AttackStart < 0 {
		return fmt.Errorf("liteworp: AttackStart = %v, must not be negative", p.AttackStart)
	}
	if !(p.CollisionPc0 >= 0) {
		return fmt.Errorf("liteworp: CollisionPc0 = %g, must not be negative", p.CollisionPc0)
	}
	if p.Attack == AttackHighPower && !(p.HighPowerFactor >= 1) {
		return fmt.Errorf("liteworp: HighPowerFactor = %g, want >= 1", p.HighPowerFactor)
	}
	if p.CollisionPc0 > 0 && p.CollisionNB0 <= 0 {
		return fmt.Errorf("liteworp: CollisionNB0 must be positive")
	}
	if p.CollisionPc0 > 0 && (p.CollisionMax <= 0 || p.CollisionMax > 1) {
		return fmt.Errorf("liteworp: CollisionMax = %g, want (0, 1]", p.CollisionMax)
	}
	return nil
}

func minMaliciousFor(m AttackMode) int {
	switch m {
	case AttackEncapsulation, AttackOutOfBand:
		return 2
	case AttackHighPower, AttackRelay, AttackRushing:
		return 1
	default:
		return 0
	}
}
