package watch_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"liteworp"
	"liteworp/internal/watch"
)

// TestReceptionLogMatchesOracle runs whole scenarios at smoke scale with
// every guard's store audited against the per-guard map oracle: each
// Heard, HeardAny, Expect, forward-met and waiting answer the store gives
// must be the oracle's, and each forwarder a settled probe reports must be
// a no-op Expect there. The scenarios cover the paper's network, churn (crashes,
// reboots, link flaps and 30% alert loss), a 200-node flood, and the
// strict fabrication check.
func TestReceptionLogMatchesOracle(t *testing.T) {
	paper := func(seed int64) liteworp.Params {
		p := liteworp.DefaultParams()
		p.Seed = seed
		p.Duration = 40 * time.Second
		return p
	}
	cases := []struct {
		name   string
		params liteworp.Params
		churn  bool
	}{
		{name: "paper-n100", params: paper(1)},
		{name: "churn-n100", params: paper(2), churn: true},
		{name: "flood-n200", params: func() liteworp.Params {
			p := liteworp.DefaultParams()
			p.Seed = 3
			p.NumNodes = 200
			p.AvgNeighbors = math.Max(p.AvgNeighbors, 1.5*math.Log(200))
			p.Duration = 3 * time.Second
			p.AttackStart = time.Second
			return p
		}()},
		{name: "strict-n100", params: func() liteworp.Params {
			p := paper(4)
			p.StrictFabrication = true
			return p
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var bad []string
			counts, stop := watch.Audit(func(m string) { bad = append(bad, m) })
			defer stop()
			s, err := liteworp.NewScenario(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			if tc.churn {
				plan, err := liteworp.RandomFaultPlan(rand.New(rand.NewSource(11)), liteworp.RandomFaultConfig{
					Nodes:      s.NodeIDs(),
					Window:     tc.params.Duration,
					Crashes:    20,
					MeanOutage: 2 * time.Second,
					Flaps:      10,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.InjectFaults(plan.DropAlerts(0, 0, 0.3)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if len(bad) > 0 {
				t.Fatalf("%d answers differ from the oracle; first: %s", len(bad), bad[0])
			}
			c := *counts
			// The strict check asks Heard(PrevHop) alone, never HeardAny.
			if c.Record == 0 || c.Heard == 0 || (c.HeardAny == 0) != tc.params.StrictFabrication || c.Expect == 0 || c.SettledTrue == 0 || c.Waiting == 0 {
				t.Fatalf("audit checked too little: %+v", c)
			}
			if tc.churn {
				reboots := 0
				for _, a := range s.FaultLog() {
					if strings.Contains(a.What, "reboot") {
						reboots++
					}
				}
				if reboots == 0 {
					t.Fatalf("churn run rebooted nothing: %v", s.FaultLog())
				}
			}
			t.Logf("%+v", c)
		})
	}
}
