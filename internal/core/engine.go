// Package core implements the LITEWORP protocol engine (paper §4): the
// acceptance checks applied to every received packet, local monitoring of
// control traffic by guard nodes, and the response/isolation protocol that
// revokes detected wormhole endpoints.
//
// The engine composes the substrates:
//
//   - the neighbor table (secure 1st/2nd-hop knowledge) answers "is this
//     sender my neighbor?", "can this claimed link exist?", "am I a guard
//     of this link?";
//   - the watch buffer tracks forwarding obligations and malicious
//     counters (MalC);
//   - pairwise keys authenticate the alert messages that spread a guard's
//     verdict to the accused node's other neighbors.
//
// Detection per attack mode (§4.2.3): fabrication/drop observations by
// guards catch the out-of-band and encapsulation modes; the non-neighbor
// acceptance check defeats high-power transmission and packet relay; the
// protocol-deviation (rushing) mode is, as in the paper, not detectable by
// local monitoring.
package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"liteworp/internal/detector"
	"liteworp/internal/field"
	"liteworp/internal/keys"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
	"liteworp/internal/watch"
)

// RejectReason classifies why an inbound packet was refused.
type RejectReason uint8

// Rejection causes. NonNeighbor rejections defeat the high-power and relay
// wormhole modes; UnknownLink is the second-hop check that exposes
// encapsulation/out-of-band endpoints; Revoked enforces isolation.
const (
	RejectNonNeighbor RejectReason = iota + 1
	RejectRevoked
	RejectUnknownLink
)

// String names the rejection reason.
func (r RejectReason) String() string {
	switch r {
	case RejectNonNeighbor:
		return "non-neighbor"
	case RejectRevoked:
		return "revoked"
	case RejectUnknownLink:
		return "unknown-link"
	default:
		return fmt.Sprintf("RejectReason(%d)", uint8(r))
	}
}

// Config parameterizes the engine.
type Config struct {
	// Detector selects and parameterizes the detection strategy fed by
	// this engine's observations: the watch parameters (tau, V_f, V_d,
	// C_t, T) for the LITEWORP guard strategy, the fabrication/drop
	// ablations, and the rival strategies' knobs. The zero value selects
	// the LITEWORP strategy with default watch parameters.
	Detector detector.Config
	// Gamma is the detection confidence index: the number of distinct
	// guards that must alert a node before it isolates the accused
	// (paper Table 2: gamma in 2..8).
	Gamma int
	// DisableTwoHopCheck turns off the second-hop legitimacy check in
	// CheckInbound (ablation: quantifies what that check contributes).
	// The acceptance checks are engine-level, not detector-level: they
	// run whichever strategy is monitoring.
	DisableTwoHopCheck bool
	// Positions, when non-nil, is the coordinate oracle handed to
	// position-aware detectors (the range strategy). Nil disables their
	// checks.
	Positions detector.Positions
	// StaleSilence is the dead-silence discriminator: when a watched
	// neighbor has transmitted nothing at all for this long, an expired
	// forwarding expectation is attributed to a crash, not malice — the
	// accusation is suppressed and the neighbor is marked stale until it
	// is heard again. A live wormhole endpoint keeps transmitting (it must
	// re-inject tunneled control traffic to attract routes), so its
	// silence clock keeps resetting and drop detection is unaffected.
	// The window must be short: right after a real crash the neighborhood
	// floods with rediscovery REQs, each arming expectations against the
	// dead node, and every expiry before the window elapses still counts
	// as a drop — a window much longer than the watch timeout lets those
	// accusations cross the revocation threshold before the discriminator
	// engages. Default 2s (4x the default watch timeout); negative
	// disables the discriminator.
	StaleSilence time.Duration
	// MaxAlertRetries is how many times a guard retransmits each alert
	// (alerts are single unicasts carrying an isolation verdict — a lost
	// one can cost the whole revocation, so they are repeated with
	// backoff; receivers deduplicate per guard). Default 2; negative
	// disables retransmission.
	MaxAlertRetries int
	// AlertRetryBackoff is the delay before the first alert
	// retransmission; it doubles per attempt. Default 1s.
	AlertRetryBackoff time.Duration
}

// DefaultConfig returns the paper's default parameterization with gamma=2.
func DefaultConfig() Config {
	return Config{Detector: detector.DefaultConfig(), Gamma: 2}
}

func (c Config) withDefaults() Config {
	if c.Gamma <= 0 {
		c.Gamma = 2
	}
	switch {
	case c.StaleSilence == 0:
		c.StaleSilence = 2 * time.Second
	case c.StaleSilence < 0:
		c.StaleSilence = 0
	}
	switch {
	case c.MaxAlertRetries == 0:
		c.MaxAlertRetries = 2
	case c.MaxAlertRetries < 0:
		c.MaxAlertRetries = 0
	}
	if c.AlertRetryBackoff <= 0 {
		c.AlertRetryBackoff = time.Second
	}
	return c
}

// Events are optional observation hooks; any field may be nil.
type Events struct {
	// Accusation fires on every guard observation (fabrication or drop).
	Accusation func(watch.Accusation)
	// LocalRevocation fires when this node's own MalC threshold crosses
	// for the accused and it revokes unilaterally as a guard.
	LocalRevocation func(accused field.NodeID)
	// AlertSent fires per alert unicast to a neighbor of the accused.
	AlertSent func(accused, to field.NodeID)
	// AlertAccepted fires when a verified alert from a guard is stored.
	AlertAccepted func(accused, guard field.NodeID)
	// Isolated fires when gamma distinct guards have alerted and this
	// node marks the accused revoked.
	Isolated func(accused field.NodeID)
	// Rejected fires when an inbound packet is refused.
	Rejected func(p *packet.Packet, reason RejectReason)
	// AlertRetry fires per alert retransmission (attempt starts at 1).
	AlertRetry func(accused, to field.NodeID, attempt int)
	// MarkedStale fires when a silent neighbor is presumed crashed.
	MarkedStale func(id field.NodeID)
}

// Stats counts engine activity at one node.
type Stats struct {
	RejectedNonNeighbor uint64
	RejectedRevoked     uint64
	RejectedUnknownLink uint64
	AlertsSent          uint64
	AlertRetries        uint64
	AlertsAccepted      uint64
	AlertsRejected      uint64
	LocalRevocations    uint64
	Isolations          uint64
	StaleMarked         uint64
}

// Engine is one node's LITEWORP instance.
type Engine struct {
	kernel sim.Clock
	ring   *keys.Ring
	table  *neighbor.Table
	det    detector.Detector
	cfg    Config
	send   func(*packet.Packet) error
	events Events

	seq      uint64
	alerts   map[field.NodeID]map[field.NodeID]bool // accused -> guards heard from
	isolated map[field.NodeID]time.Duration         // accused -> isolation time
	// lastHeard/heardSet track each neighbor's last overheard transmission,
	// dense by the table's nbrIdx (the silence clock feeding the crash
	// discriminator). heardSet distinguishes "never heard" from time zero.
	lastHeard []time.Duration
	heardSet  []bool
	stats     Stats
}

// New wires an engine for the owner of table/ring. send puts frames on the
// shared medium. The configured detector kind must be a built-in
// (validated at the Params layer); an unknown kind panics here because the
// engine cannot run without a strategy.
func New(k sim.Clock, ring *keys.Ring, table *neighbor.Table, cfg Config, send func(*packet.Packet) error, events Events) *Engine {
	e := &Engine{
		kernel:   k,
		ring:     ring,
		table:    table,
		cfg:      cfg.withDefaults(),
		send:     send,
		events:   events,
		alerts:   make(map[field.NodeID]map[field.NodeID]bool),
		isolated: make(map[field.NodeID]time.Duration),
	}
	env := detector.Env{
		Clock:     k,
		Table:     table,
		Positions: cfg.Positions,
		Suspect:   func(id field.NodeID) bool { return len(e.alerts[id]) > 0 },
		OnAccusation: func(a watch.Accusation) {
			if events.Accusation != nil {
				events.Accusation(a)
			}
		},
		OnThreshold: e.onThreshold,
	}
	if e.cfg.StaleSilence > 0 {
		env.DropFilter = e.suppressDeadSilentDrop
	}
	det, err := detector.New(env, cfg.Detector)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	e.det = det
	return e
}

// Table returns the engine's neighbor table.
func (e *Engine) Table() *neighbor.Table { return e.table }

// Detector returns the engine's detection strategy.
func (e *Engine) Detector() detector.Detector { return e.det }

// Buffer returns the LITEWORP strategy's watch buffer (for inspection and
// tests), or nil when a rival detector is running.
func (e *Engine) Buffer() *watch.Buffer {
	if b, ok := e.det.(interface{ Buffer() *watch.Buffer }); ok {
		return b.Buffer()
	}
	return nil
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Gamma returns the configured detection confidence index.
func (e *Engine) Gamma() int { return e.cfg.Gamma }

// IsIsolated reports whether this node has isolated id (either by its own
// guard verdict or by accumulating gamma alerts).
func (e *Engine) IsIsolated(id field.NodeID) bool {
	_, ok := e.isolated[id]
	return ok
}

// IsolatedAt returns when this node isolated id.
func (e *Engine) IsolatedAt(id field.NodeID) (time.Duration, bool) {
	t, ok := e.isolated[id]
	return t, ok
}

// CheckInbound applies LITEWORP's acceptance rules to a frame this node is
// about to process (it is addressed to us or is a flood we would forward).
// It returns false with a reason when the frame must be discarded:
//
//   - the transmitter is not in our neighbor table (high-power and relay
//     wormholes, or any spoofed-origin injection);
//   - the transmitter has been revoked (isolation);
//   - the announced previous hop is not a known neighbor of the
//     transmitter (the second-hop check that exposes tunnel endpoints).
func (e *Engine) CheckInbound(p *packet.Packet) (bool, RejectReason) {
	_, st, ok := e.table.Lookup(p.Sender)
	if !ok {
		e.stats.RejectedNonNeighbor++
		e.reject(p, RejectNonNeighbor)
		return false, RejectNonNeighbor
	}
	if st == neighbor.StatusRevoked {
		e.stats.RejectedRevoked++
		e.reject(p, RejectRevoked)
		return false, RejectRevoked
	}
	if !e.cfg.DisableTwoHopCheck && p.PrevHop != p.Sender && !e.table.KnowsLink(p.PrevHop, p.Sender) {
		e.stats.RejectedUnknownLink++
		e.reject(p, RejectUnknownLink)
		return false, RejectUnknownLink
	}
	return true, 0
}

func (e *Engine) reject(p *packet.Packet, reason RejectReason) {
	if e.events.Rejected != nil {
		e.events.Rejected(p, reason)
	}
}

// OutboundAllowed reports whether this node may send to next (isolation:
// "after isolation, D does not accept or send any packet to a revoked
// node").
func (e *Engine) OutboundAllowed(next field.NodeID) bool {
	return !e.table.IsRevoked(next)
}

// NoteInterference forwards a radio CRC-failure signal to the detector
// (the LITEWORP strategy suspends negative evidence during bursts).
func (e *Engine) NoteInterference() { e.det.Interference() }

// NoteAlive records evidence that neighbor id is up: any overheard
// transmission resets its silence clock and clears a presumed-crash (stale)
// marking, so a rebooted node's guards resume watching it.
func (e *Engine) NoteAlive(id field.NodeID) {
	if id == e.table.Self() {
		return
	}
	if idx, st, ok := e.table.Lookup(id); ok {
		e.noteAlive(idx, st, id)
	}
}

// noteAlive is NoteAlive after the table lookup: idx/st are id's dense
// index and current status. Refresh is only worth a table mutation when
// the entry is actually stale.
func (e *Engine) noteAlive(idx int32, st neighbor.Status, id field.NodeID) {
	for int(idx) >= len(e.lastHeard) {
		e.lastHeard = append(e.lastHeard, 0)
		e.heardSet = append(e.heardSet, false)
	}
	e.lastHeard[idx] = e.kernel.Now()
	e.heardSet[idx] = true
	if st == neighbor.StatusStale {
		e.table.Refresh(id)
	}
}

// suppressDeadSilentDrop is the watch buffer's DropFilter: an expired
// forwarding expectation on a neighbor that has been totally silent for
// StaleSilence is evidence of a crash, not of selective dropping — suppress
// the accusation and mark the neighbor stale. A neighbor we have never
// heard at all gets no such benefit (external attackers stay accusable).
func (e *Engine) suppressDeadSilentDrop(accused field.NodeID, _ packet.Key) bool {
	idx, _, ok := e.table.Lookup(accused)
	if !ok || int(idx) >= len(e.heardSet) || !e.heardSet[idx] {
		return false
	}
	if e.kernel.Now()-e.lastHeard[idx] < e.cfg.StaleSilence {
		return false
	}
	if e.table.MarkStale(accused) {
		e.stats.StaleMarked++
		if e.events.MarkedStale != nil {
			e.events.MarkedStale(accused)
		}
	}
	return true
}

// RecordOwnSend notes a control packet this node itself transmitted, so
// the detector can tell real forwards of the node's own packets from
// fabrications claiming it as the previous hop (paper §4.2.1).
func (e *Engine) RecordOwnSend(p *packet.Packet) {
	if !p.Type.IsControl() {
		return
	}
	e.det.OwnSend(p)
}

// Monitor inspects every frame this node overhears (promiscuous mode) and
// feeds control traffic to the detection strategy. The engine keeps the
// strategy-independent prechecks: only control frames from live,
// unrevoked neighbors are monitorable, and any overheard transmission
// resets the sender's silence clock (the crash discriminator's input).
func (e *Engine) Monitor(p *packet.Packet) {
	if !p.Type.IsControl() {
		return
	}
	sender := p.Sender
	if sender == e.table.Self() {
		return
	}
	// Only neighbors are monitorable; also skip traffic from nodes we
	// already revoked (their links are dead to us). One table lookup
	// answers membership, revocation and the dense index for the silence
	// clock.
	idx, st, ok := e.table.Lookup(sender)
	if !ok || st == neighbor.StatusRevoked {
		return
	}
	e.noteAlive(idx, st, sender)
	e.det.Overheard(p)
}

// ObserveAnnouncement feeds an authenticated neighbor-list announcement
// from a neighbor to the detector, after the table has absorbed it. The
// announced degree is read back from the table — the stored set *is* what
// the announcement claimed.
func (e *Engine) ObserveAnnouncement(from field.NodeID) {
	if from == e.table.Self() || !e.table.HasEntry(from) {
		return
	}
	e.det.Announcement(from, len(e.table.NeighborsOf(from)))
}

// onThreshold implements the response protocol (§4.2.2 step i): the guard
// revokes the accused from its neighbor list and sends an authenticated
// alert to each neighbor of the accused.
func (e *Engine) onThreshold(accused field.NodeID) {
	if e.table.Revoke(accused) {
		e.stats.LocalRevocations++
		e.markIsolated(accused)
		if e.events.LocalRevocation != nil {
			e.events.LocalRevocation(accused)
		}
	}
	for _, d := range e.alertTargets(accused) {
		e.sendAlert(accused, d)
	}
}

// alertTargets returns the accused's announced neighbors minus self and the
// accused, in ascending order. The ordering matters: sendAlert draws retry
// jitter from the shared random source, so an unordered iteration would
// leak into the simulation's RNG sequence and break run-to-run determinism.
// The table stores announced sets pre-sorted, so filtering preserves order.
func (e *Engine) alertTargets(accused field.NodeID) []field.NodeID {
	self := e.table.Self()
	set := e.table.NeighborsOf(accused)
	out := make([]field.NodeID, 0, len(set))
	for _, d := range set {
		if d != self && d != accused {
			out = append(out, d)
		}
	}
	return out
}

func (e *Engine) sendAlert(accused, to field.NodeID) {
	e.seq++
	payload := make([]byte, 4)
	binary.BigEndian.PutUint32(payload, uint32(accused))
	alert := &packet.Packet{
		Type:      packet.TypeAlert,
		Seq:       e.seq,
		Origin:    e.table.Self(),
		FinalDest: to,
		Sender:    e.table.Self(),
		PrevHop:   e.table.Self(),
		Receiver:  to,
		Payload:   payload,
	}
	if err := e.ring.Sign(alert, to); err != nil {
		return
	}
	e.stats.AlertsSent++
	if e.events.AlertSent != nil {
		e.events.AlertSent(accused, to)
	}
	_ = e.send(alert)
	e.scheduleAlertRetry(alert, accused, to, 1)
}

// scheduleAlertRetry retransmits an alert with doubling, jittered backoff.
// The MAC layer offers no end-to-end acknowledgment for these single-hop
// verdicts, so guards repeat them unconditionally a bounded number of times;
// the receiver deduplicates per guard, making the repeats idempotent. The
// jitter matters: threshold crossings at different guards cluster in time,
// and un-jittered retries would re-collide in synchronized bursts.
func (e *Engine) scheduleAlertRetry(alert *packet.Packet, accused, to field.NodeID, attempt int) {
	if attempt > e.cfg.MaxAlertRetries {
		return
	}
	delay := e.cfg.AlertRetryBackoff<<(attempt-1) + e.kernel.UniformDuration(e.cfg.AlertRetryBackoff)
	e.kernel.After(delay, func() {
		e.stats.AlertRetries++
		if e.events.AlertRetry != nil {
			e.events.AlertRetry(accused, to, attempt)
		}
		_ = e.send(alert)
		e.scheduleAlertRetry(alert, accused, to, attempt+1)
	})
}

// HandleAlert processes an alert addressed to this node (§4.2.2 steps
// ii-iv): verify the MAC, verify the alerter is a guard of the accused
// (i.e. a neighbor of the accused, per our second-hop knowledge), verify
// the accused is our neighbor, deduplicate per guard, and isolate once
// gamma distinct guards have alerted.
func (e *Engine) HandleAlert(p *packet.Packet) {
	self := e.table.Self()
	if p.Receiver != self || p.Sender == self {
		return
	}
	if len(p.Payload) != 4 {
		e.stats.AlertsRejected++
		return
	}
	guard := p.Sender
	accused := field.NodeID(binary.BigEndian.Uint32(p.Payload))
	if !e.ring.Verify(p, guard) {
		e.stats.AlertsRejected++
		return
	}
	// The accused must be our neighbor — otherwise the alert does not
	// concern us.
	if !e.table.HasEntry(accused) {
		e.stats.AlertsRejected++
		return
	}
	// The alerter must be in a position to guard the accused: a neighbor
	// of the accused according to our stored two-hop knowledge (or one of
	// our own neighbors that the accused's list confirms).
	if guard != accused && !e.table.KnowsLink(guard, accused) && !e.table.KnowsLink(accused, guard) {
		e.stats.AlertsRejected++
		return
	}
	set, ok := e.alerts[accused]
	if !ok {
		set = make(map[field.NodeID]bool)
		e.alerts[accused] = set
	}
	if set[guard] {
		return // duplicate
	}
	set[guard] = true
	e.stats.AlertsAccepted++
	if e.events.AlertAccepted != nil {
		e.events.AlertAccepted(accused, guard)
	}
	if len(set) >= e.cfg.Gamma {
		if e.table.Revoke(accused) {
			e.stats.Isolations++
			e.markIsolated(accused)
			if e.events.Isolated != nil {
				e.events.Isolated(accused)
			}
			// Endorsement: having verified gamma independent guards, we
			// relay the verdict to the accused's other neighbors. A
			// guard's one-hop alert cannot reach every neighbor of the
			// accused (they are spread over a 2r disk); this epidemic
			// step completes the paper's "isolation by all neighbors"
			// quickly. Receivers still require gamma distinct alerters,
			// and endorsers have themselves verified gamma alerts.
			for _, d := range e.alertTargets(accused) {
				e.sendAlert(accused, d)
			}
		}
	}
}

// AlertCount returns how many distinct guards have alerted about id.
func (e *Engine) AlertCount(id field.NodeID) int {
	return len(e.alerts[id])
}

func (e *Engine) markIsolated(id field.NodeID) {
	if _, ok := e.isolated[id]; !ok {
		e.isolated[id] = e.kernel.Now()
	}
}
