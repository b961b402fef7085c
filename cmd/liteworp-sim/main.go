// Command liteworp-sim runs a single LITEWORP scenario and prints its
// results: data-plane outcomes, routes captured by the wormhole, detection
// counters, and per-attacker isolation latency.
//
// Example:
//
//	liteworp-sim -nodes 100 -malicious 2 -attack oob -duration 500s
//	liteworp-sim -liteworp=false -malicious 4 -attack encap
//	liteworp-sim -detector range -malicious 2 -attack oob
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"liteworp"
	"liteworp/internal/fault"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "liteworp-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("liteworp-sim", flag.ContinueOnError)
	p := liteworp.DefaultParams()

	seed := fs.Int64("seed", p.Seed, "random seed (equal seeds reproduce runs)")
	nodes := fs.Int("nodes", p.NumNodes, "number of nodes N")
	nb := fs.Float64("neighbors", p.AvgNeighbors, "target average neighbor count NB")
	malicious := fs.Int("malicious", p.NumMalicious, "number of compromised nodes M")
	attackName := fs.String("attack", "oob", "attack mode: none|encap|oob|highpower|relay|rushing")
	protect := fs.Bool("liteworp", p.Liteworp, "enable LITEWORP (false = unprotected baseline)")
	detectorName := fs.String("detector", "", "detection strategy: liteworp (default)|zscore|range|none")
	gamma := fs.Int("gamma", p.Gamma, "detection confidence index")
	duration := fs.Duration("duration", p.Duration, "operational time to simulate")
	attackStart := fs.Duration("attack-start", p.AttackStart, "attack activation offset")
	lambda := fs.Float64("lambda", p.Lambda, "per-node data rate (packets/s)")
	verbose := fs.Bool("v", false, "print the cumulative drop curve")
	tracePath := fs.String("trace", "", "write a JSONL radio trace to this file")
	hopByHop := fs.Bool("hopbyhop", false, "AODV-style hop-by-hop data forwarding")
	airtime := fs.Bool("airtime", false, "physical contention channel (CSMA + airtime collisions)")
	churnCrashes := fs.Int("churn-crashes", 0, "random honest-node crashes to inject over the run")
	churnOutage := fs.Duration("churn-outage", 30*time.Second, "mean crash outage before auto-reboot")
	churnFlaps := fs.Int("churn-flaps", 0, "random link flaps to inject over the run")
	churnSpikes := fs.Int("churn-spikes", 0, "random channel-loss spikes to inject over the run")
	alertDrop := fs.Float64("alert-drop", 0, "ALERT frame drop probability (detection-plane jamming)")

	if err := fs.Parse(args); err != nil {
		return err
	}

	mode, err := parseAttack(*attackName)
	if err != nil {
		return err
	}

	p.Seed = *seed
	p.NumNodes = *nodes
	p.AvgNeighbors = *nb
	p.NumMalicious = *malicious
	p.Attack = mode
	p.Liteworp = *protect
	p.Detector = *detectorName
	p.Gamma = *gamma
	p.Duration = *duration
	p.AttackStart = *attackStart
	p.Lambda = *lambda
	if *hopByHop {
		p.Routing = liteworp.RoutingHopByHop
	}
	p.AirtimeChannel = *airtime
	if p.NumMalicious == 0 {
		p.Attack = liteworp.AttackNone
	}

	s, err := liteworp.NewScenario(p)
	if err != nil {
		return err
	}
	if *churnCrashes > 0 || *churnFlaps > 0 || *churnSpikes > 0 {
		// Churn targets honest nodes; the attackers staying up is the
		// harder case for detection. The plan derives from the scenario
		// seed so churn runs reproduce like everything else.
		malicious := make(map[liteworp.NodeID]bool)
		for _, m := range s.MaliciousIDs() {
			malicious[m] = true
		}
		var honest []liteworp.NodeID
		for _, id := range s.NodeIDs() {
			if !malicious[id] {
				honest = append(honest, id)
			}
		}
		plan, err := fault.RandomPlan(rand.New(rand.NewSource(p.Seed*104729+7)), fault.RandomConfig{
			Nodes:      honest,
			Window:     p.Duration,
			Crashes:    *churnCrashes,
			MeanOutage: *churnOutage,
			Flaps:      *churnFlaps,
			LossSpikes: *churnSpikes,
		})
		if err != nil {
			return err
		}
		if err := s.InjectFaults(plan); err != nil {
			return err
		}
	}
	if *alertDrop > 0 {
		drop := (&fault.Plan{}).DropAlerts(0, 0, *alertDrop)
		if err := s.InjectFaults(drop); err != nil {
			return err
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		tw := s.EnableTrace(f)
		defer func() {
			if tw.Err() != nil {
				fmt.Fprintln(os.Stderr, "trace:", tw.Err())
			} else {
				fmt.Printf("  trace: %d records -> %s\n", tw.Count(), *tracePath)
			}
		}()
	}
	start := time.Now()
	r, err := s.Run()
	if err != nil {
		return err
	}
	fmt.Print(r.String())
	fmt.Printf("  wall clock: %v\n", time.Since(start).Round(time.Millisecond))

	if *verbose {
		fmt.Println("  cumulative drops:")
		step := r.Now / 20
		if step <= 0 {
			step = time.Second
		}
		for at := step; at <= r.Now; at += step {
			fmt.Printf("    t=%8s  dropped=%6.0f\n", at.Round(time.Second), r.DroppedAt(at))
		}
	}
	return nil
}

func parseAttack(name string) (liteworp.AttackMode, error) {
	switch name {
	case "none":
		return liteworp.AttackNone, nil
	case "encap", "encapsulation":
		return liteworp.AttackEncapsulation, nil
	case "oob", "out-of-band":
		return liteworp.AttackOutOfBand, nil
	case "highpower", "high-power":
		return liteworp.AttackHighPower, nil
	case "relay":
		return liteworp.AttackRelay, nil
	case "rushing", "protocol-deviation":
		return liteworp.AttackRushing, nil
	default:
		return 0, fmt.Errorf("unknown attack mode %q", name)
	}
}
