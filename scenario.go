package liteworp

import (
	"fmt"
	"io"
	"maps"
	"math/rand"
	"sort"
	"time"

	"liteworp/internal/attack"
	"liteworp/internal/core"
	"liteworp/internal/detector"
	"liteworp/internal/fault"
	"liteworp/internal/field"
	"liteworp/internal/keys"
	"liteworp/internal/medium"
	"liteworp/internal/metrics"
	"liteworp/internal/neighbor"
	"liteworp/internal/node"
	"liteworp/internal/ordered"
	"liteworp/internal/packet"
	"liteworp/internal/routing"
	"liteworp/internal/sim"
	"liteworp/internal/trace"
	"liteworp/internal/trafficgen"
	"liteworp/internal/watch"
)

// Scenario is one fully wired simulation: topology, medium, nodes,
// attackers, traffic, and metrics.
type Scenario struct {
	params    Params
	kernel    *sim.Kernel
	topo      *field.Field
	med       *medium.Medium
	deps      node.Deps // what every node shares, deployed or joined
	keysrv    *keys.KeyServer
	collector *metrics.Collector
	nodes     map[field.NodeID]*node.Node
	sources   map[field.NodeID]*trafficgen.Source
	malicious []field.NodeID
	malSet    map[field.NodeID]bool

	opStart  time.Duration // operational phase begin (discovery done)
	attackAt time.Duration // absolute attack activation time
	ran      bool

	// Fault-injection state.
	tracer       *trace.Writer // lifecycle/alert-retry trace sink (may be nil)
	injector     *fault.Injector
	lossOverride float64 // current SetChannelLoss override (0 = configured model)
	alertDropP   float64 // current ALERT drop probability
	faultHooked  bool    // delivery-fault hook installed on the medium
	downSince    map[field.NodeID]time.Duration
	downtime     map[field.NodeID]time.Duration
}

// Scenario implements fault.Network, so fault plans drive it directly.
var _ fault.Network = (*Scenario)(nil)

// trafficDelay is how long after its discovery starts a node's traffic
// begins: discovery completes at neighbor.DiscoveryTime (T_ND), plus slack.
// The operational phase starts this long after deployment, and a rebooted
// node's source resumes this long after the reboot.
const trafficDelay = neighbor.DiscoveryTime + 1*time.Second

// detectorConfig translates Params into the detector selection and its
// parameterization (the watch knobs feed the LITEWORP strategy; the rival
// strategies run at fixed constants of their own).
func (p Params) detectorConfig() detector.Config {
	return detector.Config{
		Kind: p.Detector,
		Watch: watch.Config{
			Timeout:              p.WatchTimeout,
			FabricationIncrement: p.FabricationIncrement,
			DropIncrement:        p.DropIncrement,
			Threshold:            p.MalCThreshold,
			Window:               p.MalCWindow,
		},
		StrictFabricationCheck: p.StrictFabrication,
		DisableDropDetection:   p.DisableDropDetection,
	}
}

// nodeConfig is the one place Params becomes a per-node stack
// configuration, shared by initial deployment and dynamic joins so the
// two paths cannot drift. dynamic selects late-join discovery.
func (p Params) nodeConfig(dynamic bool) node.Config {
	return node.Config{
		Liteworp: p.Liteworp,
		Core: core.Config{
			Detector:           p.detectorConfig(),
			Gamma:              p.Gamma,
			DisableTwoHopCheck: p.DisableTwoHopCheck,
		},
		Routing: routing.Config{
			RouteTimeout:    p.RouteTimeout,
			ForwardJitter:   p.ForwardJitter,
			HopByHop:        p.Routing == RoutingHopByHop,
			SendRouteErrors: p.RouteErrors,
		},
		DynamicJoin: dynamic,
	}
}

// firstID is the first deployed node's ID; the rest follow densely, and a
// node joined later takes the next one.
const firstID NodeID = 1

// NewScenario deploys the topology, wires every node's protocol stack, and
// schedules discovery, traffic and the attack. Nothing runs until Run (or
// RunFor) is called.
func NewScenario(p Params) (*Scenario, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Scenario{
		params:    p,
		kernel:    sim.New(p.Seed),
		keysrv:    keys.NewKeyServer(uint64(p.Seed)*2654435761 + 97),
		collector: metrics.NewCollector(),
		nodes:     make(map[field.NodeID]*node.Node),
		malSet:    make(map[field.NodeID]bool),
		downSince: make(map[field.NodeID]time.Duration),
		downtime:  make(map[field.NodeID]time.Duration),
	}

	// Deployment uses its own derived RNG so topology depends only on the
	// seed, not on how many random draws the protocol stack makes.
	deployRng := rand.New(rand.NewSource(p.Seed*7919 + 13))
	side := field.SideForDensity(p.NumNodes, p.AvgNeighbors, p.TxRange)
	topo, err := field.DeployUniform(field.DeployConfig{
		N: p.NumNodes, Width: side, Height: side, Range: p.TxRange, FirstID: firstID,
	}, deployRng)
	if err != nil {
		return nil, fmt.Errorf("liteworp: deploy: %w", err)
	}
	s.topo = topo

	if p.NumMalicious > 0 {
		mal, err := field.PickDistantNodes(topo, p.NumMalicious, p.MinMaliciousSep, deployRng)
		if err != nil {
			return nil, fmt.Errorf("liteworp: place attackers: %w", err)
		}
		sort.Slice(mal, func(i, j int) bool { return mal[i] < mal[j] })
		s.malicious = mal
		for _, m := range mal {
			s.malSet[m] = true
		}
	}

	// Discovery runs over a clean channel (the paper's T_CT/T_ND secure
	// window); collision losses are enabled with the traffic.
	s.med = medium.New(s.kernel, topo, medium.Config{BandwidthBps: p.BandwidthBps})

	var log *watch.Log
	if p.Liteworp {
		// One log for every guard; it allocates its entries as the first
		// guard records a transmission.
		log = watch.NewLog(s.kernel)
	}
	s.deps = node.Deps{
		Kernel:       s.kernel,
		Medium:       s.med,
		Keys:         s.keysrv,
		Collector:    s.collector,
		Log:          log,
		Floods:       routing.NewFloods(firstID),
		MaliciousSet: s.malSet,
		Topo:         topo,
		OnAlertRetry: func(nodeID, accused, to field.NodeID, attempt int) {
			if s.tracer != nil {
				s.tracer.Emit(trace.Event{
					T: trace.Seconds(s.kernel.Now()), Kind: trace.KindAlertRetry,
					From: uint32(nodeID), To: uint32(to), Origin: uint32(accused), Seq: uint64(attempt),
				})
			}
		},
		OnAccusation: func(nodeID field.NodeID, a watch.Accusation) {
			if s.tracer != nil {
				s.tracer.Emit(trace.Event{
					T: trace.Seconds(s.kernel.Now()), Kind: trace.KindAccuse,
					From: uint32(nodeID), To: uint32(a.Accused), Seq: uint64(a.MalC),
					Detail: a.Reason.String(),
				})
			}
		},
		OnIsolated: func(nodeID, accused field.NodeID, local bool) {
			if s.tracer != nil {
				detail := "alert-endorsement"
				if local {
					detail = "local-malc"
				}
				s.tracer.Emit(trace.Event{
					T: trace.Seconds(s.kernel.Now()), Kind: trace.KindIsolate,
					From: uint32(nodeID), To: uint32(accused), Detail: detail,
				})
			}
		},
	}
	attackCfg := attack.Config{
		Mode:             p.Attack.internal(),
		HighPowerFactor:  p.HighPowerFactor,
		EncapDelayPerHop: p.EncapDelayPerHop,
		SmartRepCover:    p.SmartAttacker,
		DropProbability:  p.DropProbability,
		PrevHop:          attack.StrategyForgeNeighbor,
	}
	if p.PrevHop == PrevHopClaimColluder {
		attackCfg.PrevHop = attack.StrategyClaimColluder
	}

	for _, id := range topo.IDs() {
		cfg := p.nodeConfig(p.DynamicJoin)
		if s.malSet[id] {
			ac := attackCfg
			cfg.Attack = &ac
			cfg.Colluders = s.malicious
			if p.Attack == AttackRushing {
				// The protocol-deviation attacker skips the REQ backoff.
				cfg.Routing.ForwardJitter = 0
			}
		}
		s.nodes[id] = node.New(id, cfg, s.deps)
	}

	s.opStart = trafficDelay
	s.attackAt = s.opStart + p.AttackStart
	s.collector.AttackStart = s.attackAt

	// Boot sequence: discovery at t=0, then the operational phase.
	for _, id := range topo.IDs() {
		if err := s.nodes[id].Start(); err != nil {
			return nil, err
		}
		// Attackers stay dormant until the attack start time.
		if n := s.nodes[id]; n.Attacker() != nil {
			n.Attacker().SetActive(false)
		}
	}

	// Out-of-band / encapsulation tunnels between every colluder pair
	// (endpoints must already be attached to the medium).
	if m := p.Attack.internal(); m == attack.ModeOutOfBand || m == attack.ModeEncapsulation {
		for i := 0; i < len(s.malicious); i++ {
			for j := i + 1; j < len(s.malicious); j++ {
				a, b := s.malicious[i], s.malicious[j]
				var delay time.Duration
				if m == attack.ModeEncapsulation {
					hops := topo.HopDistance(a, b)
					if hops < 1 {
						hops = 1
					}
					delay = time.Duration(hops) * p.EncapDelayPerHop
				}
				if err := s.med.AddTunnel(a, b, delay); err != nil {
					return nil, fmt.Errorf("liteworp: tunnel %d-%d: %w", a, b, err)
				}
			}
		}
	}

	s.kernel.At(s.opStart, s.enterOperationalPhase)
	if p.NumMalicious > 0 {
		s.kernel.At(s.attackAt, func() {
			for _, m := range s.malicious {
				s.nodes[m].Attacker().SetActive(true)
			}
		})
	}
	return s, nil
}

func (s *Scenario) enterOperationalPhase() {
	p := s.params
	if p.CollisionPc0 > 0 {
		s.med.SetLoss(medium.NewLinearCollision(s.topo, p.CollisionPc0, p.CollisionNB0, p.CollisionMax))
	}
	if p.AirtimeChannel {
		s.med.EnableAirtime()
	}
	if p.Liteworp {
		// Surface radio CRC failures to the guards so negative evidence
		// is suspended during interference bursts (both channel models
		// report garbled frames).
		s.med.SetCorruptionNotify(func(rx field.NodeID) {
			if n := s.nodes[rx]; n != nil && n.Engine() != nil {
				n.Engine().NoteInterference()
			}
		})
	}
	ids := s.topo.IDs()
	s.sources = trafficgen.StartAll(s.kernel, ids,
		trafficgen.Config{Lambda: p.Lambda, Mu: p.Mu, PayloadBytes: p.PayloadBytes},
		func(from, dest field.NodeID, payload []byte) error {
			return s.nodes[from].SendData(dest, payload)
		})
}

// AddNodeAt deploys a new honest node at position (x, y) at the current
// virtual time — the paper's incremental-deployment / mobility extension
// (§7). It requires Params.DynamicJoin: the newcomer runs the secure join
// handshake with its radio neighborhood (HELLO, authenticated replies,
// authenticated neighbor-list exchange, re-announcement by the joined
// neighbors), after which routing and monitoring treat it as any other
// node. The returned ID identifies the new node.
func (s *Scenario) AddNodeAt(x, y float64) (NodeID, error) {
	if !s.params.DynamicJoin {
		return 0, fmt.Errorf("liteworp: AddNodeAt requires Params.DynamicJoin")
	}
	id := firstID + NodeID(s.topo.Len())
	for {
		if _, exists := s.topo.Position(id); !exists {
			break
		}
		id++
	}
	if err := s.topo.Place(id, field.Point{X: x, Y: y}); err != nil {
		return 0, err
	}
	// Joiners always run dynamic discovery regardless of the deployed
	// nodes' setting (they are, by definition, late).
	n := node.New(id, s.params.nodeConfig(true), s.deps)
	if err := n.Start(); err != nil {
		return 0, err
	}
	s.nodes[id] = n
	return id, nil
}

// Kernel exposes the simulation clock/scheduler (read-only use recommended).
func (s *Scenario) Kernel() *sim.Kernel { return s.kernel }

// MediumStats returns the radio channel counters (transmissions,
// deliveries, losses, airtime collisions, tunnel messages).
func (s *Scenario) MediumStats() medium.Stats { return s.med.Stats() }

// SetChannelLoss overrides the channel's loss model with a flat
// per-reception probability — a fault-injection hook for interference
// spikes. p is clamped to [0, 1]; p == 0 restores the scenario's
// configured model. It returns the previous override (0 when the
// configured model was active), so a transient spike can put back exactly
// what it displaced.
func (s *Scenario) SetChannelLoss(p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	prev := s.lossOverride
	s.lossOverride = p
	if p == 0 {
		if s.params.CollisionPc0 > 0 {
			s.med.SetLoss(medium.NewLinearCollision(s.topo, s.params.CollisionPc0, s.params.CollisionNB0, s.params.CollisionMax))
		} else {
			s.med.SetLoss(nil)
		}
		return prev
	}
	s.med.SetLoss(medium.FixedLoss{P: p})
	return prev
}

// CrashNode takes a node down at the current virtual time: its radio goes
// silent, the incarnation's timers are cancelled, volatile protocol state
// is dropped (the pairwise key ring persists), and its traffic source
// stops. Fails if the node is unknown or already down.
func (s *Scenario) CrashNode(id NodeID) error {
	n := s.nodes[id]
	if n == nil {
		return fmt.Errorf("liteworp: crash: no node %d", id)
	}
	if err := n.Crash(); err != nil {
		return err
	}
	s.downSince[id] = s.kernel.Now()
	if src := s.sources[id]; src != nil {
		src.Stop()
	}
	s.emitLifecycle(trace.KindCrash, id)
	return nil
}

// RebootNode brings a crashed node back: a fresh protocol stack re-runs
// neighbor discovery against the persisted key ring, and the node's
// traffic source resumes once the discovery window has passed (a source
// with no neighbors yet would only feed the failure counters).
func (s *Scenario) RebootNode(id NodeID) error {
	n := s.nodes[id]
	if n == nil {
		return fmt.Errorf("liteworp: reboot: no node %d", id)
	}
	if err := n.Reboot(); err != nil {
		return err
	}
	if since, ok := s.downSince[id]; ok {
		s.downtime[id] += s.kernel.Now() - since
		delete(s.downSince, id)
	}
	if src := s.sources[id]; src != nil {
		s.kernel.After(trafficDelay, func() {
			if !n.Down() { // still up: it may have crashed again meanwhile
				src.Resume()
			}
		})
	}
	s.emitLifecycle(trace.KindReboot, id)
	return nil
}

// SetLinkDown severs (down=true) or restores (down=false) the radio link
// a<->b in both directions, independently of node health.
func (s *Scenario) SetLinkDown(a, b NodeID, down bool) error {
	return s.med.SetLinkDown(a, b, down)
}

// SetAlertDropProb makes the channel destroy ALERT frames with the given
// probability (clamped to [0, 1]; 0 disables) — the targeted
// counter-countermeasure of an attacker jamming the detection plane.
// Other frame types are untouched.
func (s *Scenario) SetAlertDropProb(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s.alertDropP = p
	if p > 0 && !s.faultHooked {
		// Install the hook lazily and leave it in place: it draws no
		// randomness while the probability is zero, so a no-fault run's
		// RNG sequence is untouched.
		s.faultHooked = true
		s.med.SetDeliveryFault(func(tx, rx field.NodeID, pkt *packet.Packet) bool {
			if s.alertDropP <= 0 || pkt.Type != packet.TypeAlert {
				return false
			}
			return s.kernel.Rand().Float64() < s.alertDropP
		})
	}
}

// InjectFaults validates and schedules a fault plan. Event times are
// relative to the operational start (discovery is assumed fault-free, per
// the paper's T_ND secure-window model). May be called several times; the
// plans accumulate on one injector.
func (s *Scenario) InjectFaults(pl *fault.Plan) error {
	if s.injector == nil {
		s.injector = fault.NewInjector(s.kernel, s)
	}
	return s.injector.ScheduleAt(s.opStart, pl)
}

// FaultLog returns the fault actions applied so far (including implicit
// restores such as auto-reboots), in execution order. Direct CrashNode /
// RebootNode / SetLinkDown calls are not logged — only injected plans.
func (s *Scenario) FaultLog() []fault.Applied {
	if s.injector == nil {
		return nil
	}
	return s.injector.Applied()
}

func (s *Scenario) emitLifecycle(kind trace.Kind, id NodeID) {
	if s.tracer != nil {
		s.tracer.Emit(trace.Event{T: trace.Seconds(s.kernel.Now()), Kind: kind, From: uint32(id)})
	}
}

// EnableTrace streams every radio delivery attempt and tunnel transfer to
// w as JSON Lines (an ns-2-style trace). Call before Run; pass nil to
// disable. The returned writer exposes the record count and any sticky
// write error after the run.
func (s *Scenario) EnableTrace(w io.Writer) *trace.Writer {
	if w == nil {
		s.med.SetTrace(nil)
		s.tracer = nil
		return nil
	}
	tw := trace.NewWriter(w)
	s.tracer = tw
	s.med.SetTrace(func(ev medium.TraceEvent) {
		kind := trace.KindRx
		switch {
		case ev.Tunnel:
			kind = trace.KindTunnel
		case ev.Lost:
			kind = trace.KindLoss
		}
		tw.Emit(trace.Event{
			T:          trace.Seconds(ev.At),
			Kind:       kind,
			From:       uint32(ev.From),
			To:         uint32(ev.To),
			PacketType: ev.Packet.Type.String(),
			Origin:     uint32(ev.Packet.Origin),
			Seq:        ev.Packet.Seq,
		})
	})
	return tw
}

// MaliciousIDs returns the compromised node IDs, ascending.
func (s *Scenario) MaliciousIDs() []NodeID {
	out := make([]NodeID, len(s.malicious))
	copy(out, s.malicious)
	return out
}

// Node returns a node's stack for inspection (nil if absent).
func (s *Scenario) Node(id NodeID) *node.Node { return s.nodes[id] }

// NodeIDs returns every node ID, ascending.
func (s *Scenario) NodeIDs() []NodeID { return s.topo.IDs() }

// Point is a position in the deployment field, in meters.
type Point = field.Point

// Position returns a node's deployed position.
func (s *Scenario) Position(id NodeID) (Point, bool) { return s.topo.Position(id) }

// HonestNeighborsOf returns the ground-truth honest radio neighbors of id —
// the observers whose isolation verdicts define full isolation.
func (s *Scenario) HonestNeighborsOf(id NodeID) []NodeID {
	var out []NodeID
	for _, nb := range s.topo.Neighbors(id) {
		if !s.malSet[nb] {
			out = append(out, nb)
		}
	}
	return out
}

// OperationalStart returns when the operational phase (traffic) begins.
func (s *Scenario) OperationalStart() time.Duration { return s.opStart }

// AttackTime returns the absolute activation time of the attack.
func (s *Scenario) AttackTime() time.Duration { return s.attackAt }

// Run simulates the configured duration and returns the results.
func (s *Scenario) Run() (*Results, error) {
	if s.ran {
		return nil, fmt.Errorf("liteworp: scenario already run")
	}
	s.ran = true
	if err := s.kernel.RunUntil(s.opStart + s.params.Duration); err != nil {
		return nil, err
	}
	return s.Results(), nil
}

// RunFor advances the simulation by d (for incremental inspection in
// examples and tests). It may be interleaved with Results snapshots.
func (s *Scenario) RunFor(d time.Duration) error {
	return s.kernel.RunFor(d)
}

func (s *Scenario) bandwidthBreakdown() BandwidthBreakdown {
	st := s.med.Stats()
	var b BandwidthBreakdown
	b.TotalBytes = st.BytesOnAir
	for t, n := range st.BytesByType {
		switch packet.Type(t) {
		case packet.TypeHello, packet.TypeHelloReply, packet.TypeNeighborList:
			b.DiscoveryBytes += n
		case packet.TypeRouteRequest, packet.TypeRouteReply:
			b.ControlBytes += n
		case packet.TypeData:
			b.DataBytes += n
		case packet.TypeAlert:
			b.AlertBytes += n
		case packet.TypeTunnelEncap:
			b.TunnelBytes += n
		}
	}
	return b
}

// Results snapshots the current metrics into an immutable result set.
func (s *Scenario) Results() *Results {
	c := s.collector
	r := &Results{
		Params:             s.params,
		Now:                s.kernel.Now(),
		OperationalStart:   s.opStart,
		AttackAt:           s.attackAt,
		DataOriginated:     c.DataOriginated,
		DataDelivered:      c.DataDelivered,
		DataDroppedAttack:  c.DataDroppedAttack,
		DataRejected:       c.DataRejected,
		DataBlockedRevoked: c.DataBlockedRevoked,
		RoutesEstablished:  c.RoutesEstablished,
		WormholeRoutes:     c.WormholeRoutes,
		PhantomRoutes:      c.PhantomRoutes,
		Accusations:        c.Accusations,
		FalseAccusations:   c.FalseAccusations,
		LocalRevocations:   c.LocalRevocations,
		AlertsSent:         c.AlertsSent,
		AlertRetries:       c.AlertRetries,
		FalseIsolations:    c.FalseIsolations,
		FractionDropped:    c.FractionDropped(),
		FractionWormhole:   c.FractionMaliciousRoutes(),
		DeliveryRatio:      c.DeliveryRatio(),
		DroppedSeries:      c.CumulativeDropped.Samples(),
		Bandwidth:          s.bandwidthBreakdown(),
		FaultEvents:        len(s.FaultLog()),
	}
	if len(s.downtime) > 0 || len(s.downSince) > 0 {
		r.NodeDowntime = maps.Clone(s.downtime)
		now := s.kernel.Now()
		for _, id := range ordered.Keys(s.downSince) {
			// Still down at snapshot time: count the open interval.
			r.NodeDowntime[id] += now - s.downSince[id]
		}
	}
	for _, accused := range c.AccusedNodes() {
		if !s.malSet[accused] {
			r.FalselyIsolatedNodes++
		}
	}
	det := detector.Canonical(s.params.Detector)
	if !s.params.Liteworp {
		det = "disabled"
	}
	r.Detector = DetectorStats{
		Detector:             det,
		Accusations:          c.Accusations,
		FalseAccusations:     c.FalseAccusations,
		FalselyIsolatedNodes: r.FalselyIsolatedNodes,
	}
	if len(c.AccusationsByReason) > 0 {
		r.Detector.ByReason = maps.Clone(c.AccusationsByReason)
	}
	if at, ok := c.FirstIsolation(); ok {
		r.Detector.Detected = true
		if at > s.attackAt {
			r.Detector.TimeToFirstIsolation = at - s.attackAt
		}
	}
	fully := 0
	for _, m := range s.malicious {
		required := s.HonestNeighborsOf(m)
		isolated := c.IsolatedCount(m)
		out := MaliciousOutcome{
			ID:              m,
			HonestNeighbors: len(required),
			IsolatedByCount: isolated,
			Detected:        isolated > 0,
		}
		if lat, ok := c.IsolationLatency(m, required); ok {
			out.FullyIsolated = true
			out.IsolationLatency = lat
			fully++
		}
		r.Malicious = append(r.Malicious, out)
	}
	if len(s.malicious) > 0 {
		r.DetectionRatio = float64(fully) / float64(len(s.malicious))
	}
	return r
}
