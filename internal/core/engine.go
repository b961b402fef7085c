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
	"slices"
	"time"

	"liteworp/internal/detector"
	"liteworp/internal/field"
	"liteworp/internal/keys"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
	"liteworp/internal/watch"
)

// Graceful-degradation timing, fixed for every run.
const (
	// staleSilence is the dead-silence discriminator: when a watched
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
	// engages. 2 s is 4x the default watch timeout.
	staleSilence = 2 * time.Second
	// maxAlertRetries is how many times a guard retransmits each alert
	// (alerts are single unicasts carrying an isolation verdict — a lost
	// one can cost the whole revocation, so they are repeated with
	// backoff; receivers deduplicate per guard).
	maxAlertRetries = 2
	// alertRetryBackoff is the delay before the first alert
	// retransmission; it doubles per attempt.
	alertRetryBackoff = time.Second
)

// Config parameterizes the engine.
type Config struct {
	// Detector selects and parameterizes the detection strategy fed by
	// this engine's observations: the watch parameters (tau, V_f, V_d,
	// C_t, T) and the scenario's reception log for the LITEWORP guard
	// strategy, and the fabrication/drop ablations. The rival strategies
	// run at fixed constants of their own.
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
	// Positions is the coordinate oracle handed to position-aware
	// detectors (the range strategy).
	Positions detector.Positions
}

// Events are the observation hooks; every field is required.
type Events struct {
	// Accusation fires on every guard observation (fabrication or drop).
	Accusation func(watch.Accusation)
	// LocalRevocation fires when this node's own MalC threshold crosses
	// for the accused and it revokes unilaterally as a guard.
	LocalRevocation func(accused field.NodeID)
	// AlertSent fires per alert unicast to a neighbor of the accused.
	AlertSent func(accused, to field.NodeID)
	// Isolated fires when gamma distinct guards have alerted and this
	// node marks the accused revoked.
	Isolated func(accused field.NodeID)
	// AlertRetry fires per alert retransmission (attempt starts at 1).
	AlertRetry func(accused, to field.NodeID, attempt int)
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

	seq uint64
	// Per-neighbor state is dense by the table's nbrIdx. lastHeard/heardSet
	// track each neighbor's last overheard transmission (the silence clock
	// feeding the crash discriminator); heardSet distinguishes "never
	// heard" from time zero. verdicts grows only when an alert is accepted
	// or a neighbor is isolated, so a neighbor nobody accused costs none.
	lastHeard []time.Duration
	heardSet  []bool
	verdicts  []verdict
	stats     Stats
}

// verdict is what this node holds against one neighbor: the distinct
// guards whose alerts about it were accepted, in arrival order, and when
// the node isolated it. isolatedAt is valid once the table has the
// neighbor revoked; only the engine revokes, and never twice.
type verdict struct {
	guards     []field.NodeID
	isolatedAt time.Duration
}

// New wires an engine for the owner of table/ring. send puts frames on the
// shared medium. The configured detector kind must be a built-in
// (validated at the Params layer); an unknown kind panics here because the
// engine cannot run without a strategy.
func New(k sim.Clock, ring *keys.Ring, table *neighbor.Table, cfg Config, send func(*packet.Packet) error, events Events) *Engine {
	e := &Engine{
		kernel: k,
		ring:   ring,
		table:  table,
		cfg:    cfg,
		send:   send,
		events: events,
	}
	env := detector.Env{
		Clock:        k,
		Table:        table,
		Positions:    cfg.Positions,
		Suspect:      e.suspect,
		OnAccusation: events.Accusation,
		OnThreshold:  e.onThreshold,
		DropFilter:   e.suppressDeadSilentDrop,
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
// guard verdict or by accumulating gamma alerts): the table holds it
// revoked.
func (e *Engine) IsIsolated(id field.NodeID) bool { return e.table.IsRevoked(id) }

// IsolatedAt returns when this node isolated id.
func (e *Engine) IsolatedAt(id field.NodeID) (time.Duration, bool) {
	idx, st, ok := e.table.Lookup(id)
	if !ok || st != neighbor.StatusRevoked || int(idx) >= len(e.verdicts) {
		return 0, false
	}
	return e.verdicts[idx].isolatedAt, true
}

// CheckInbound applies LITEWORP's acceptance rules to a frame this node is
// about to process (it is addressed to us or is a flood we would forward).
// sidx is what Monitor returned for the frame: the sender's nbrIdx, or
// Unresolved, which has CheckInbound look the sender up. It returns false,
// and counts the cause in Stats, when the frame must be discarded:
//
//   - the transmitter is not in our neighbor table (high-power and relay
//     wormholes, or any spoofed-origin injection);
//   - the transmitter has been revoked (isolation);
//   - the announced previous hop is not a known neighbor of the
//     transmitter (the second-hop check that exposes tunnel endpoints).
//
// The sender's status is read at sidx, not taken from Monitor: a
// fabrication Monitor saw in this very frame may have revoked it.
func (e *Engine) CheckInbound(p *packet.Packet, sidx int32) bool {
	var st neighbor.Status
	if sidx == Unresolved {
		sidx, st, _ = e.table.Lookup(p.Sender)
	} else {
		st = e.table.StatusAt(sidx)
	}
	if st == 0 {
		e.stats.RejectedNonNeighbor++
		return false
	}
	if st == neighbor.StatusRevoked {
		e.stats.RejectedRevoked++
		return false
	}
	if !e.cfg.DisableTwoHopCheck && p.PrevHop != p.Sender && !e.table.KnowsLinkAt(p.PrevHop, sidx) {
		e.stats.RejectedUnknownLink++
		return false
	}
	return true
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

// noteAlive records evidence that neighbor id, at nbrIdx idx with status
// st, is up: any overheard transmission resets its silence clock and
// clears a presumed-crash (stale) marking, so a rebooted node's guards
// resume watching it. Refresh is only worth a table mutation when the
// entry is actually stale.
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
// staleSilence is evidence of a crash, not of selective dropping — suppress
// the accusation and mark the neighbor stale. A neighbor we have never
// heard at all gets no such benefit (external attackers stay accusable).
func (e *Engine) suppressDeadSilentDrop(accused field.NodeID, _ packet.Key) bool {
	idx, _, ok := e.table.Lookup(accused)
	if !ok || int(idx) >= len(e.heardSet) || !e.heardSet[idx] {
		return false
	}
	if e.kernel.Now()-e.lastHeard[idx] < staleSilence {
		return false
	}
	if e.table.MarkStale(accused) {
		e.stats.StaleMarked++
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

// Unresolved is Monitor's answer for a frame whose sender it did not
// resolve to a neighbor: a data frame, the host's own, or one from a node
// outside the table.
const Unresolved int32 = -1

// Monitor inspects every frame this node overhears (promiscuous mode) and
// feeds control traffic to the detection strategy. The engine keeps the
// strategy-independent prechecks: only control frames from live,
// unrevoked neighbors are monitorable, and any overheard transmission
// resets the sender's silence clock (the crash discriminator's input).
// It returns the sender's nbrIdx, for CheckInbound, or Unresolved.
func (e *Engine) Monitor(p *packet.Packet) int32 {
	if !p.Type.IsControl() {
		return Unresolved
	}
	sender := p.Sender
	if sender == e.table.Self() {
		return Unresolved
	}
	// Only neighbors are monitorable; also skip traffic from nodes we
	// already revoked (their links are dead to us). One table lookup
	// answers membership, revocation and the dense index for the silence
	// clock and the detector.
	idx, st, ok := e.table.Lookup(sender)
	if !ok {
		return Unresolved
	}
	if st != neighbor.StatusRevoked {
		e.noteAlive(idx, st, sender)
		e.det.Overheard(p, idx)
	}
	return idx
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
		idx, _, _ := e.table.Lookup(accused)
		e.verdictAt(idx).isolatedAt = e.kernel.Now()
		e.events.LocalRevocation(accused)
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
	e.events.AlertSent(accused, to)
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
	if attempt > maxAlertRetries {
		return
	}
	delay := alertRetryBackoff<<(attempt-1) + e.kernel.UniformDuration(alertRetryBackoff)
	e.kernel.After(delay, func() {
		e.stats.AlertRetries++
		e.events.AlertRetry(accused, to, attempt)
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
	aidx, _, ok := e.table.Lookup(accused)
	if !ok {
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
	v := e.verdictAt(aidx)
	if slices.Contains(v.guards, guard) {
		return // duplicate
	}
	v.guards = append(v.guards, guard)
	e.stats.AlertsAccepted++
	if len(v.guards) >= e.cfg.Gamma {
		if e.table.Revoke(accused) {
			e.stats.Isolations++
			v.isolatedAt = e.kernel.Now()
			e.events.Isolated(accused)
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
	if idx, _, ok := e.table.Lookup(id); ok && int(idx) < len(e.verdicts) {
		return len(e.verdicts[idx].guards)
	}
	return 0
}

// suspect is the detector's Env.Suspect: whether any alert about the
// neighbor at idx has been accepted.
func (e *Engine) suspect(idx int32) bool {
	return int(idx) < len(e.verdicts) && len(e.verdicts[idx].guards) > 0
}

// verdictAt returns the verdict on the neighbor at idx, growing the dense
// storage to hold it.
func (e *Engine) verdictAt(idx int32) *verdict {
	for int(idx) >= len(e.verdicts) {
		e.verdicts = append(e.verdicts, verdict{})
	}
	return &e.verdicts[idx]
}
