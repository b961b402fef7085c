// Package fault is the fault-injection subsystem: typed fault events
// (node crashes and reboots, link flaps, alert loss, channel-loss spikes),
// schedules of them (Plan), a seeded random schedule generator, and an
// Injector that executes a plan against a running simulation.
//
// The paper's robustness claims (§5, §6.4) assume guards stay up and alerts
// arrive; this package exists to take those assumptions away on purpose and
// measure how detection degrades. The package knows nothing about the
// scenario type — it drives any implementation of the small Network
// interface, which keeps the dependency arrow pointing downward (the
// top-level scenario implements Network; fault never imports it).
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"liteworp/internal/field"
)

// Kind enumerates the fault types.
type Kind int

const (
	// NodeCrash takes a node down at At. If Duration > 0 the injector
	// schedules the matching reboot automatically at At+Duration;
	// Duration == 0 means the node stays down (fail-stop).
	NodeCrash Kind = iota
	// NodeReboot brings a crashed node back up at At. Only needed for
	// explicit control; crashes with a Duration reboot themselves.
	NodeReboot
	// LinkFlap severs the radio link A<->B at At and restores it at
	// At+Duration (both directions — the medium's link-down set is
	// symmetric).
	LinkFlap
	// AlertDrop makes the channel drop ALERT frames with probability P
	// during [At, At+Duration) — the targeted counter-countermeasure of a
	// jammer suppressing the detection plane. Duration == 0 leaves it on.
	AlertDrop
	// LossSpike overrides the channel loss model with a flat
	// per-reception probability P during [At, At+Duration), then restores
	// whatever was configured before. Duration == 0 leaves it on.
	LossSpike
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "crash"
	case NodeReboot:
		return "reboot"
	case LinkFlap:
		return "link-flap"
	case AlertDrop:
		return "alert-drop"
	case LossSpike:
		return "loss-spike"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault. At is relative to the plan's schedule
// origin (the injector adds its offset). Which fields matter depends on
// Kind: Node for crashes/reboots, A/B for link flaps, P for the two
// probabilistic kinds.
type Event struct {
	Kind     Kind
	At       time.Duration
	Duration time.Duration
	Node     field.NodeID
	A, B     field.NodeID
	P        float64
}

// String renders a compact human-readable form for logs.
func (e Event) String() string {
	switch e.Kind {
	case NodeCrash, NodeReboot:
		return fmt.Sprintf("%s node %d at %v (dur %v)", e.Kind, e.Node, e.At, e.Duration)
	case LinkFlap:
		return fmt.Sprintf("%s %d<->%d at %v (dur %v)", e.Kind, e.A, e.B, e.At, e.Duration)
	default:
		return fmt.Sprintf("%s p=%.2f at %v (dur %v)", e.Kind, e.P, e.At, e.Duration)
	}
}

// Plan is a schedule of fault events. The zero value is an empty plan;
// builder methods append and return the plan for chaining.
type Plan struct {
	Events []Event
}

// Crash schedules node down at at; outage > 0 auto-reboots it after that
// long, outage == 0 is fail-stop.
func (pl *Plan) Crash(at, outage time.Duration, node field.NodeID) *Plan {
	pl.Events = append(pl.Events, Event{Kind: NodeCrash, At: at, Duration: outage, Node: node})
	return pl
}

// Reboot schedules an explicit reboot of node at at.
func (pl *Plan) Reboot(at time.Duration, node field.NodeID) *Plan {
	pl.Events = append(pl.Events, Event{Kind: NodeReboot, At: at, Node: node})
	return pl
}

// FlapLink severs a<->b at at and restores it duration later.
func (pl *Plan) FlapLink(at, duration time.Duration, a, b field.NodeID) *Plan {
	pl.Events = append(pl.Events, Event{Kind: LinkFlap, At: at, Duration: duration, A: a, B: b})
	return pl
}

// DropAlerts drops ALERT frames with probability p during [at, at+duration).
func (pl *Plan) DropAlerts(at, duration time.Duration, p float64) *Plan {
	pl.Events = append(pl.Events, Event{Kind: AlertDrop, At: at, Duration: duration, P: p})
	return pl
}

// SpikeLoss overrides channel loss with probability p during
// [at, at+duration).
func (pl *Plan) SpikeLoss(at, duration time.Duration, p float64) *Plan {
	pl.Events = append(pl.Events, Event{Kind: LossSpike, At: at, Duration: duration, P: p})
	return pl
}

// Validate rejects malformed events (negative times, probabilities outside
// [0,1], missing targets, self-links, unknown kinds).
func (pl *Plan) Validate() error {
	for i, e := range pl.Events {
		if e.At < 0 || e.Duration < 0 {
			return fmt.Errorf("fault: event %d (%s): negative time", i, e)
		}
		switch e.Kind {
		case NodeCrash, NodeReboot:
			if e.Node == 0 {
				return fmt.Errorf("fault: event %d (%s): no target node", i, e.Kind)
			}
		case LinkFlap:
			if e.A == 0 || e.B == 0 || e.A == e.B {
				return fmt.Errorf("fault: event %d (%s): bad link %d<->%d", i, e.Kind, e.A, e.B)
			}
		case AlertDrop, LossSpike:
			if e.P < 0 || e.P > 1 {
				return fmt.Errorf("fault: event %d (%s): probability %v outside [0,1]", i, e.Kind, e.P)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Sorted returns a copy of the events in schedule order (stable on At, so
// same-instant events keep insertion order).
func (pl *Plan) Sorted() []Event {
	out := make([]Event, len(pl.Events))
	copy(out, pl.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// RandomConfig parameterizes RandomPlan. Zero counts produce no events of
// that kind; zero durations/probabilities fall back to the defaults noted
// on each field.
type RandomConfig struct {
	// Nodes is the population crashes and flaps draw targets from.
	Nodes []field.NodeID
	// Window is the span events are spread over (uniform). Required.
	Window time.Duration

	// Crashes is how many crash events to generate.
	Crashes int
	// MeanOutage is the average crash outage; actual outages are uniform
	// in [0.5, 1.5) of it. Default 30s.
	MeanOutage time.Duration

	// Flaps is how many link-flap events to generate (random node pairs;
	// flapping a pair that is not a radio link is a harmless no-op).
	Flaps int
	// FlapDuration is the average flap length, varied like MeanOutage.
	// Default 5s.
	FlapDuration time.Duration

	// LossSpikes is how many channel-loss spikes to generate.
	LossSpikes int
	// SpikeLoss is the per-reception loss probability of a spike.
	// Default 0.3.
	SpikeLoss float64
	// SpikeDuration is the average spike length, varied as above.
	// Default 10s.
	SpikeDuration time.Duration
}

// RandomPlan builds a reproducible random fault schedule: the same rng
// state and config always produce the same plan (churn experiments sweep
// the seed).
func RandomPlan(rng *rand.Rand, cfg RandomConfig) (*Plan, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("fault: RandomPlan: window must be positive")
	}
	if (cfg.Crashes > 0 || cfg.Flaps > 0) && len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("fault: RandomPlan: no nodes to target")
	}
	if cfg.Flaps > 0 && len(cfg.Nodes) < 2 {
		return nil, fmt.Errorf("fault: RandomPlan: flaps need at least two nodes")
	}
	if cfg.MeanOutage <= 0 {
		cfg.MeanOutage = 30 * time.Second
	}
	if cfg.FlapDuration <= 0 {
		cfg.FlapDuration = 5 * time.Second
	}
	if cfg.SpikeDuration <= 0 {
		cfg.SpikeDuration = 10 * time.Second
	}
	if cfg.SpikeLoss <= 0 {
		cfg.SpikeLoss = 0.3
	}
	jitter := func(mean time.Duration) time.Duration {
		d := time.Duration((0.5 + float64(rng.Float64())) * float64(mean))
		if d <= 0 {
			// A sub-nanosecond mean must not truncate to 0: a zero crash
			// outage means fail-stop (no auto-reboot), not "reboot at once".
			d = time.Nanosecond
		}
		return d
	}
	at := func() time.Duration { return time.Duration(rng.Int63n(int64(cfg.Window))) }
	pl := &Plan{}
	for i := 0; i < cfg.Crashes; i++ {
		pl.Crash(at(), jitter(cfg.MeanOutage), cfg.Nodes[rng.Intn(len(cfg.Nodes))])
	}
	for i := 0; i < cfg.Flaps; i++ {
		a := cfg.Nodes[rng.Intn(len(cfg.Nodes))]
		b := cfg.Nodes[rng.Intn(len(cfg.Nodes))]
		for b == a {
			b = cfg.Nodes[rng.Intn(len(cfg.Nodes))]
		}
		pl.FlapLink(at(), jitter(cfg.FlapDuration), a, b)
	}
	for i := 0; i < cfg.LossSpikes; i++ {
		pl.SpikeLoss(at(), jitter(cfg.SpikeDuration), cfg.SpikeLoss)
	}
	return pl, nil
}
