// Command fault-injection demonstrates the fault-injection subsystem:
// mid-attack, two of the wormhole's guard nodes crash and reboot 30 s
// later, while a jammer suppresses half of all ALERT frames. Detection
// survives both: the remaining guards and the rebooted ones finish the
// job, and alert retransmission works around the jammer.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"liteworp"
)

func main() {
	params := liteworp.DefaultParams()
	params.NumNodes = 50
	params.NumMalicious = 2
	params.Attack = liteworp.AttackOutOfBand
	params.Duration = 360 * time.Second

	scenario, err := liteworp.NewScenario(params)
	if err != nil {
		log.Fatal(err)
	}

	// Crash two guards of the first attacker 10 s after the attack
	// begins; both reboot 30 s later. Suppress alerts the whole run.
	target := scenario.MaliciousIDs()[0]
	guards := scenario.HonestNeighborsOf(target)
	if len(guards) < 2 {
		log.Fatalf("attacker %d has only %d honest neighbors", target, len(guards))
	}
	plan := (&liteworp.FaultPlan{}).
		Crash(60*time.Second, 30*time.Second, guards[0]).
		Crash(60*time.Second, 30*time.Second, guards[1]).
		DropAlerts(0, 0, 0.5)
	if err := scenario.InjectFaults(plan); err != nil {
		log.Fatal(err)
	}

	results, err := scenario.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(results.String())

	fmt.Println("\nfault log:")
	for _, a := range scenario.FaultLog() {
		status := "ok"
		if a.Err != nil {
			status = a.Err.Error()
		}
		fmt.Printf("  %8v  %-28s %s\n", a.At.Round(time.Millisecond), a.What, status)
	}
	// Print in ascending node order: map order would differ between runs.
	nodes := make([]liteworp.NodeID, 0, len(results.NodeDowntime))
	for node := range results.NodeDowntime {
		nodes = append(nodes, node)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, node := range nodes {
		fmt.Printf("node %d was down for %v\n", node, results.NodeDowntime[node].Round(time.Millisecond))
	}
	fmt.Printf("alert retransmissions forced by the jammer: %d\n", results.AlertRetries)
}
