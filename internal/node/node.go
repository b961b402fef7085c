// Package node assembles a complete network node from the substrates: the
// radio attachment, secure neighbor discovery, the on-demand router, the
// LITEWORP engine (optional — the baseline runs without it), the attacker
// role (for compromised nodes), and metrics hooks.
//
// The node is the frame dispatcher. Every frame the radio delivers flows
// through Receive, which routes it to discovery, the attacker, the
// monitoring engine, and finally — if the frame passes LITEWORP's
// acceptance checks — to the router.
package node

import (
	"fmt"

	"liteworp/internal/attack"
	"liteworp/internal/core"
	"liteworp/internal/field"
	"liteworp/internal/keys"
	"liteworp/internal/medium"
	"liteworp/internal/metrics"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/routing"
	"liteworp/internal/sim"
	"liteworp/internal/watch"
)

// Config selects a node's protocol stack.
type Config struct {
	// Liteworp enables the detection/isolation engine. The baseline
	// comparison runs with it off.
	Liteworp bool
	// Core configures the LITEWORP engine (ignored when Liteworp is off).
	Core core.Config
	// Routing configures the on-demand router.
	Routing routing.Config
	// DynamicJoin runs neighbor discovery in its incremental-join mode
	// (see neighbor.NewDiscovery).
	DynamicJoin bool
	// Attack, when non-nil, makes this node malicious with the given
	// behavior. Malicious nodes do not run the LITEWORP engine: they are
	// insiders that participate in discovery and routing but deviate.
	Attack *attack.Config
	// Colluders lists all malicious nodes in the scenario (used by the
	// attacker role; ignored for honest nodes).
	Colluders []field.NodeID
}

// Deps are the shared simulation facilities, built once per scenario and
// handed to every node, deployed or joined. Every field is required unless
// its comment says otherwise.
type Deps struct {
	Kernel    *sim.Kernel
	Medium    *medium.Medium
	Keys      *keys.KeyServer
	Collector *metrics.Collector
	// Log is the scenario's reception log, which every LITEWORP guard
	// shares. Only a scenario without LITEWORP leaves it nil.
	Log *watch.Log
	// Floods is the scenario's REQ-suppression table, which every router
	// incarnation shares.
	Floods *routing.Floods
	// MaliciousSet is ground truth for metrics classification (false
	// accusations, wormhole routes). Nil means "no malicious nodes".
	MaliciousSet map[field.NodeID]bool
	// Topo is the ground-truth topology: the coordinates position-aware
	// detectors read (the paper's GPS assumption for range tests), and
	// the metrics' test for phantom links in routes.
	Topo *field.Field
	// OnAlertRetry observes alert retransmissions (tracing).
	OnAlertRetry func(node, accused, to field.NodeID, attempt int)
	// OnAccusation observes guard accusations (tracing).
	OnAccusation func(node field.NodeID, a watch.Accusation)
	// OnIsolated observes isolation decisions (tracing); local reports
	// whether the node's own MalC crossed the threshold (as opposed to
	// gamma alert endorsements).
	OnIsolated func(node, accused field.NodeID, local bool)
}

// Node is one station's full protocol stack.
type Node struct {
	id   field.NodeID
	cfg  Config
	deps Deps

	ring      *keys.Ring
	scope     *sim.Scope
	table     *neighbor.Table
	discovery *neighbor.Discovery
	engine    *core.Engine
	router    *routing.Router
	attacker  *attack.Attacker

	operational bool
	attached    bool
	down        bool
	crashes     int
}

// New builds a node. Call Start to attach it to the medium and begin
// neighbor discovery.
func New(id field.NodeID, cfg Config, deps Deps) *Node {
	n := &Node{id: id, cfg: cfg, deps: deps}
	n.ring = keys.NewRing(id, deps.Keys)
	n.buildStack()
	return n
}

// buildStack wires one incarnation of the protocol stack. Everything above
// the key ring is volatile: a crash discards it (via the scope's mass timer
// cancellation) and a reboot calls buildStack again. The attacker role is
// the exception — colluding endpoints keep their tunnel state across honest
// nodes' churn, and its timers run on the kernel directly.
func (n *Node) buildStack() {
	n.scope = sim.NewScope(n.deps.Kernel)
	n.table = neighbor.NewTable(n.id)
	n.discovery = neighbor.NewDiscovery(n.scope, n.ring, n.table, n.deps.Medium.Broadcast, n.cfg.DynamicJoin)
	n.discovery.OnComplete(func() { n.operational = true })

	if n.cfg.Attack != nil {
		if n.attacker == nil {
			n.attacker = attack.New(n.deps.Kernel, n.deps.Medium, n.id, n.cfg.Colluders, *n.cfg.Attack)
		}
	} else if n.cfg.Liteworp {
		ccfg := n.cfg.Core
		// Every incarnation records its heard facts on the scenario's
		// log, which tells them apart by the incarnation's join.
		ccfg.Detector.Watch.Log = n.deps.Log
		ccfg.Positions = n.deps.Topo
		n.engine = core.New(n.scope, n.ring, n.table, ccfg, n.deps.Medium.Broadcast, n.engineEvents())
	}

	rcfg := n.cfg.Routing
	// The router's dense per-next-hop state shares the incarnation's
	// neighbor index, so nbrIdx values agree across the whole stack.
	rcfg.Index = n.table.Index()
	// Routed frames come from the medium's pool, which every node shares.
	rcfg.Frames = n.deps.Medium.Frames()
	// Every incarnation marks floods in the scenario's one table, which
	// clears the node's old marks as the router joins it.
	rcfg.Floods = n.deps.Floods
	n.router = routing.New(n.scope, n.id, rcfg, n.transmit, n.routerEvents())
}

// ID returns the node's identifier.
func (n *Node) ID() field.NodeID { return n.id }

// Table exposes the neighbor table (for scenario assertions).
func (n *Node) Table() *neighbor.Table { return n.table }

// Engine exposes the LITEWORP engine, nil for baseline/malicious nodes.
func (n *Node) Engine() *core.Engine { return n.engine }

// Router exposes the routing state machine.
func (n *Node) Router() *routing.Router { return n.router }

// Attacker exposes the attack role, nil for honest nodes.
func (n *Node) Attacker() *attack.Attacker { return n.attacker }

// Malicious reports whether this node carries an attacker role.
func (n *Node) Malicious() bool { return n.attacker != nil }

// Operational reports whether neighbor discovery has completed.
func (n *Node) Operational() bool { return n.operational }

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool { return n.down }

// Crashes returns how many times the node has crashed.
func (n *Node) Crashes() int { return n.crashes }

// Start attaches the node to the medium and launches neighbor discovery.
func (n *Node) Start() error {
	if n.attached {
		return fmt.Errorf("node %d: already started", n.id)
	}
	if err := n.deps.Medium.Attach(n.id, n.Receive); err != nil {
		return fmt.Errorf("node %d: %w", n.id, err)
	}
	n.attached = true
	// Kick off discovery from inside the event loop rather than now: the
	// HELLO must not hit the air until every node in the scenario has
	// attached to the medium, or early starters' HELLOs would reach
	// nobody.
	n.scope.After(0, func() { _ = n.discovery.Start() })
	return nil
}

// Crash takes the node down: its radio goes silent (the medium suppresses
// both directions), every pending timer of the current incarnation —
// watch-buffer deadlines, route evictors, discovery phases, alert retries —
// is cancelled in one scope sweep, and all volatile protocol state is
// dropped. The key ring survives (the paper's pairwise keys live in
// persistent storage).
func (n *Node) Crash() error {
	if !n.attached {
		return fmt.Errorf("node %d: crash before start", n.id)
	}
	if n.down {
		return fmt.Errorf("node %d: already down", n.id)
	}
	n.down = true
	n.crashes++
	n.operational = false
	n.scope.CancelAll()
	if err := n.deps.Medium.SetDown(n.id, true); err != nil {
		return fmt.Errorf("node %d: %w", n.id, err)
	}
	return nil
}

// Reboot brings a crashed node back: the radio resumes, a fresh protocol
// stack is built on a fresh timer scope, and neighbor discovery re-runs
// against the persisted key ring so the node re-earns its place in its
// neighbors' tables (their stale entries refresh on its authenticated
// neighbor-list announcement).
func (n *Node) Reboot() error {
	if !n.down {
		return fmt.Errorf("node %d: reboot while up", n.id)
	}
	if err := n.deps.Medium.SetDown(n.id, false); err != nil {
		return fmt.Errorf("node %d: %w", n.id, err)
	}
	n.down = false
	n.buildStack()
	d := n.discovery
	n.scope.After(0, func() { _ = d.Start() })
	return nil
}

// SendData originates a data packet toward dest.
func (n *Node) SendData(dest field.NodeID, payload []byte) error {
	n.deps.Collector.DataOriginated++
	return n.router.Send(dest, payload)
}

// transmit is the router's send hook. It enforces the isolation rule on the
// way out: a node never sends to a neighbor it has revoked. A blocked data
// packet counts as a wormhole-caused loss (the cached route through the
// revoked node keeps claiming traffic until it times out — the tail the
// paper describes in Fig. 8).
func (n *Node) transmit(p *packet.Packet) error {
	if n.engine != nil && p.Receiver != packet.Broadcast && !n.engine.OutboundAllowed(p.Receiver) {
		n.deps.Collector.DataBlockedRevoked++
		if p.Type == packet.TypeData {
			n.deps.Collector.RecordDrop(n.deps.Kernel.Now())
		}
		// Optional route repair: tell the source its cached route is dead.
		n.router.ReportBrokenRoute(p)
		return nil
	}
	if n.engine != nil {
		n.engine.RecordOwnSend(p)
	}
	return n.deps.Medium.Broadcast(p)
}

// Receive is the radio delivery callback: the node's frame dispatcher.
func (n *Node) Receive(p *packet.Packet) {
	if n.down {
		// The medium suppresses deliveries to down stations; this guards
		// against frames already handed over in the same instant.
		return
	}
	switch p.Type {
	case packet.TypeHello, packet.TypeHelloReply, packet.TypeNeighborList:
		n.discovery.Handle(p)
		if p.Type == packet.TypeNeighborList && n.engine != nil {
			// The authenticated announcement just updated the table; the
			// detector sees the announced degree (the z-score rival's
			// input). The LITEWORP strategy ignores it, so protected runs
			// replay identically.
			n.engine.ObserveAnnouncement(p.Sender)
		}
		return
	case packet.TypeTunnelEncap:
		if n.attacker != nil {
			n.attacker.HandleTunnel(p)
		}
		return
	}

	// Malicious behavior gets first crack at control traffic.
	if n.attacker != nil && p.Type.IsControl() {
		if n.attacker.HandleControl(p) {
			return
		}
	}

	// Local monitoring sees every overheard frame.
	if n.engine != nil {
		n.engine.Monitor(p)
	}

	addressed := p.Receiver == n.id || p.Receiver == packet.Broadcast
	if !addressed {
		return
	}

	if n.engine != nil {
		if !n.engine.CheckInbound(p) {
			if p.Type == packet.TypeData {
				n.deps.Collector.DataRejected++
				if n.deps.MaliciousSet[p.Sender] {
					// Data arriving from a revoked/unknown malicious
					// node dies here because of the attack.
					n.deps.Collector.RecordDrop(n.deps.Kernel.Now())
				}
			}
			return
		}
	}

	switch p.Type {
	case packet.TypeAlert:
		if n.engine != nil {
			n.engine.HandleAlert(p)
		}
	case packet.TypeRouteRequest:
		n.router.HandleRouteRequest(p)
	case packet.TypeRouteReply:
		n.router.HandleRouteReply(p)
	case packet.TypeRouteError:
		n.router.HandleRouteError(p)
	case packet.TypeData:
		if n.attacker != nil && n.attacker.ShouldDropData(p) {
			n.deps.Collector.RecordDrop(n.deps.Kernel.Now())
			return
		}
		if err := n.router.HandleData(p); err != nil {
			n.router.ReportBrokenRoute(p)
		}
	}
}

func (n *Node) routerEvents() routing.Events {
	c := n.deps.Collector
	return routing.Events{
		RouteEstablished: func(dest field.NodeID, route []field.NodeID) {
			c.RoutesEstablished++
			for _, hop := range route {
				if n.deps.MaliciousSet[hop] {
					c.WormholeRoutes++
					break
				}
			}
			for i := 1; i < len(route); i++ {
				if !n.deps.Topo.InRange(route[i-1], route[i]) {
					c.PhantomRoutes++
					break
				}
			}
		},
		DataDelivered: func(p *packet.Packet) {
			c.DataDelivered++
		},
	}
}

func (n *Node) engineEvents() core.Events {
	c := n.deps.Collector
	k := n.deps.Kernel
	return core.Events{
		Accusation: func(a watch.Accusation) {
			c.RecordAccusation(a.Reason.String(), !n.deps.MaliciousSet[a.Accused])
			n.deps.OnAccusation(n.id, a)
		},
		LocalRevocation: func(accused field.NodeID) {
			c.LocalRevocations++
			c.RecordIsolation(n.id, accused, k.Now())
			if !n.deps.MaliciousSet[accused] {
				c.FalseIsolations++
			}
			n.deps.OnIsolated(n.id, accused, true)
		},
		AlertSent: func(accused, to field.NodeID) {
			c.AlertsSent++
		},
		AlertRetry: func(accused, to field.NodeID, attempt int) {
			c.AlertRetries++
			n.deps.OnAlertRetry(n.id, accused, to, attempt)
		},
		Isolated: func(accused field.NodeID) {
			c.RecordIsolation(n.id, accused, k.Now())
			if !n.deps.MaliciousSet[accused] {
				c.FalseIsolations++
			}
			n.deps.OnIsolated(n.id, accused, false)
		},
	}
}
