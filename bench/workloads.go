package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"liteworp"
)

// A workload is a fixed batch of scenarios derived from the seed. One
// repetition ("rep") sets up and simulates every scenario of the batch once,
// so the work in a rep is fixed by the seed rather than by how fast the host
// is. Why each workload is in the set is in README.md.
type workload struct {
	name  string
	specs func(seed int64, smoke bool) []scenarioSpec
}

// scenarioSpec is everything the simulator receives for one scenario: its
// Params, plus the fault plan for churn workloads, which is drawn from the
// scenario's node IDs once the scenario exists.
type scenarioSpec struct {
	params liteworp.Params
	faults func(nodes []liteworp.NodeID) (*liteworp.FaultPlan, error)
}

// smokeDivisor shortens the 100-node horizons under -scale smoke, which
// only checks that every workload runs and reports every metric.
const smokeDivisor = 50

var workloads = []workload{
	{name: "paper-n100", specs: func(seed int64, smoke bool) []scenarioSpec {
		return seeds(seed, 3, func(s int64) scenarioSpec {
			return scenarioSpec{params: paperParams(s, smoke)}
		})
	}},
	{name: "baseline-n100", specs: func(seed int64, smoke bool) []scenarioSpec {
		return seeds(seed, 4, func(s int64) scenarioSpec {
			p := paperParams(s, smoke)
			p.Liteworp = false
			return scenarioSpec{params: p}
		})
	}},
	{name: "flood-n400", specs: func(seed int64, smoke bool) []scenarioSpec {
		n, horizon := 400, 12*time.Second
		if smoke {
			n, horizon = 200, 3*time.Second
		}
		return seeds(seed, 2, func(s int64) scenarioSpec {
			p := liteworp.DefaultParams()
			p.Seed = s
			p.NumNodes = n
			// The paper's N_B=8 leaves large random fields disconnected;
			// the degree floor 1.5 ln N is the one the N-sweep uses.
			p.AvgNeighbors = math.Max(p.AvgNeighbors, 1.5*math.Log(float64(n)))
			// Over a shorter horizon the size of the discovery storm
			// varies far more from seed to seed.
			p.Duration = horizon
			p.AttackStart = time.Second
			return scenarioSpec{params: p}
		})
	}},
	{name: "churn-n100", specs: func(seed int64, smoke bool) []scenarioSpec {
		return seeds(seed, 3, func(s int64) scenarioSpec {
			p := paperParams(s, smoke)
			return scenarioSpec{params: p, faults: func(nodes []liteworp.NodeID) (*liteworp.FaultPlan, error) {
				plan, err := liteworp.RandomFaultPlan(rand.New(rand.NewSource(s*104729+7)), liteworp.RandomFaultConfig{
					Nodes:      nodes,
					Window:     p.Duration,
					Crashes:    20,
					MeanOutage: 30 * time.Second,
					Flaps:      10,
				})
				if err != nil {
					return nil, err
				}
				return plan.DropAlerts(0, 0, 0.3), nil
			}}
		})
	}},
}

// paperParams is the paper's Table 2 configuration (DefaultParams, 500 s of
// operation) at scenario seed s.
func paperParams(s int64, smoke bool) liteworp.Params {
	p := liteworp.DefaultParams()
	p.Seed = s
	if smoke {
		p.Duration /= smokeDivisor
	}
	return p
}

// seeds builds n scenarios at consecutive scenario seeds from seed on.
func seeds(seed int64, n int, mk func(s int64) scenarioSpec) []scenarioSpec {
	out := make([]scenarioSpec, n)
	for i := range out {
		out[i] = mk(seed + int64(i))
	}
	return out
}

// selectWorkloads resolves the -workload flag: one name, or "all".
func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
