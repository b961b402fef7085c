package liteworp_test

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (see DESIGN.md §5 for the experiment index), plus
// ablation benches for the design choices the reproduction makes. The
// figure benches run reduced-scale simulations per iteration and attach
// the reproduced quantities as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every artifact and prints the headline numbers next to the
// timing. Full publication scale is available through
// cmd/liteworp-experiments -scale paper.

import (
	"math/rand"
	"testing"
	"time"

	"liteworp"
	"liteworp/internal/experiments"
	"liteworp/internal/fault"
)

// benchScale keeps per-iteration work small enough for testing.B.
var benchScale = experiments.Scale{Runs: 1, Nodes: 40, Duration: 200 * time.Second}

func runScenario(b *testing.B, mutate func(*liteworp.Params)) *liteworp.Results {
	b.Helper()
	p := liteworp.DefaultParams()
	p.NumNodes = benchScale.Nodes
	p.Duration = benchScale.Duration
	if mutate != nil {
		mutate(&p)
	}
	s, err := liteworp.NewScenario(p)
	if err != nil {
		b.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable1Taxonomy regenerates the attack-mode taxonomy.
func BenchmarkTable1Taxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 5 {
			b.Fatal("taxonomy incomplete")
		}
	}
}

// BenchmarkTable2Parameters regenerates the input-parameter table.
func BenchmarkTable2Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure5GuardGeometry evaluates the lens geometry.
func BenchmarkFigure5GuardGeometry(b *testing.B) {
	var g liteworp.GuardGeometry
	for i := 0; i < b.N; i++ {
		g = liteworp.AnalyzeGuardGeometry(30, 8/(3.14159265*30*30))
	}
	b.ReportMetric(g.ExpectedArea/900, "E[A]/r2")
	b.ReportMetric(g.GuardsPerNeighborExact, "guards/NB")
}

// BenchmarkFigure6aDetectionVsNeighbors evaluates the analytic detection
// curve and reports its peak.
func BenchmarkFigure6aDetectionVsNeighbors(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		peak = 0
		for _, pt := range experiments.Figure6a() {
			if pt.Y > peak {
				peak = pt.Y
			}
		}
	}
	b.ReportMetric(peak, "peak-P(detect)")
}

// BenchmarkFigure6bFalseAlarm evaluates the analytic false-alarm curve and
// reports its worst case.
func BenchmarkFigure6bFalseAlarm(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, pt := range experiments.Figure6b() {
			if pt.Y > worst {
				worst = pt.Y
			}
		}
	}
	b.ReportMetric(worst*1e4, "worst-P(FA)x1e4")
}

// BenchmarkFigure8CumulativeDrops runs the baseline-vs-LITEWORP cumulative
// drop comparison (one M=2 pair per iteration) and reports the final counts.
func BenchmarkFigure8CumulativeDrops(b *testing.B) {
	var baseDrops, lwDrops float64
	for i := 0; i < b.N; i++ {
		base := runScenario(b, func(p *liteworp.Params) {
			p.Liteworp = false
			p.Seed = int64(i) + 3
		})
		lw := runScenario(b, func(p *liteworp.Params) {
			p.Liteworp = true
			p.Seed = int64(i) + 3
		})
		baseDrops = float64(base.DataDroppedAttack)
		lwDrops = float64(lw.DataDroppedAttack)
	}
	b.ReportMetric(baseDrops, "dropped-baseline")
	b.ReportMetric(lwDrops, "dropped-liteworp")
}

// BenchmarkFigure9Fractions runs the M=4 cell of Figure 9 and reports the
// dropped fraction with and without LITEWORP.
func BenchmarkFigure9Fractions(b *testing.B) {
	var baseFrac, lwFrac, detect float64
	for i := 0; i < b.N; i++ {
		base := runScenario(b, func(p *liteworp.Params) {
			p.Liteworp = false
			p.NumMalicious = 4
			p.Seed = int64(i) + 5
		})
		lw := runScenario(b, func(p *liteworp.Params) {
			p.Liteworp = true
			p.NumMalicious = 4
			p.Seed = int64(i) + 5
		})
		baseFrac = base.FractionDropped
		lwFrac = lw.FractionDropped
		detect = lw.DetectionRatio
	}
	b.ReportMetric(baseFrac, "frac-dropped-baseline")
	b.ReportMetric(lwFrac, "frac-dropped-liteworp")
	b.ReportMetric(detect, "detection-ratio")
}

// BenchmarkFigure10DetectionVsGamma runs the gamma sweep's endpoints and
// reports simulated detection and isolation latency.
func BenchmarkFigure10DetectionVsGamma(b *testing.B) {
	var detLow, latLow float64
	for i := 0; i < b.N; i++ {
		r := runScenario(b, func(p *liteworp.Params) {
			p.Gamma = 2
			p.Seed = int64(i) + 7
		})
		detLow = r.DetectionRatio
		if lat, ok := r.MaxIsolationLatency(); ok {
			latLow = lat.Seconds()
		}
	}
	b.ReportMetric(detLow, "P(detect)-gamma2")
	b.ReportMetric(latLow, "isolation-s-gamma2")
}

// BenchmarkCostAnalysis evaluates the full §5.2 cost model.
func BenchmarkCostAnalysis(b *testing.B) {
	var rep liteworp.CostReport
	for i := 0; i < b.N; i++ {
		rep = liteworp.PaperCostModel().Report()
	}
	b.ReportMetric(rep.TotalMemoryBytes, "total-memory-B")
	b.ReportMetric(rep.WatchEntries, "watch-entries")
}

// --- ablations (DESIGN.md §7) ---

// BenchmarkAblationStrictFabrication compares the paper's strict per-link
// fabrication rule against the default noise-robust rule: strictness buys
// nothing on detection but multiplies false accusations under collisions.
func BenchmarkAblationStrictFabrication(b *testing.B) {
	var strictFalse, robustFalse, strictDet, robustDet float64
	for i := 0; i < b.N; i++ {
		strict := runScenario(b, func(p *liteworp.Params) {
			p.StrictFabrication = true
			p.Seed = int64(i) + 11
		})
		robust := runScenario(b, func(p *liteworp.Params) {
			p.Seed = int64(i) + 11
		})
		strictFalse = float64(strict.FalseAccusations)
		robustFalse = float64(robust.FalseAccusations)
		strictDet = strict.DetectionRatio
		robustDet = robust.DetectionRatio
	}
	b.ReportMetric(strictFalse, "false-accusations-strict")
	b.ReportMetric(robustFalse, "false-accusations-robust")
	b.ReportMetric(strictDet, "detect-strict")
	b.ReportMetric(robustDet, "detect-robust")
}

// BenchmarkAblationNoTwoHopCheck removes the second-hop check: the
// claim-colluder strategy then sails through, so wormhole routes reappear.
func BenchmarkAblationNoTwoHopCheck(b *testing.B) {
	var withRoutes, withoutRoutes float64
	for i := 0; i < b.N; i++ {
		on := runScenario(b, func(p *liteworp.Params) {
			p.PrevHop = liteworp.PrevHopClaimColluder
			p.Seed = int64(i) + 13
		})
		off := runScenario(b, func(p *liteworp.Params) {
			p.PrevHop = liteworp.PrevHopClaimColluder
			p.DisableTwoHopCheck = true
			p.Seed = int64(i) + 13
		})
		// Phantom routes (containing the tunnel's fake hop) are the
		// shortcut signature; wormhole participation on real links is
		// legitimate and would mask the effect.
		withRoutes = float64(on.PhantomRoutes)
		withoutRoutes = float64(off.PhantomRoutes)
	}
	b.ReportMetric(withRoutes, "phantom-routes-checked")
	b.ReportMetric(withoutRoutes, "phantom-routes-unchecked")
}

// BenchmarkAblationNoDropDetection removes drop detection (V_d = 0):
// fabrication alone still catches tunnel exits, but stealthier endpoint
// behavior goes unpunished.
func BenchmarkAblationNoDropDetection(b *testing.B) {
	var det float64
	for i := 0; i < b.N; i++ {
		r := runScenario(b, func(p *liteworp.Params) {
			p.DisableDropDetection = true
			p.Seed = int64(i) + 17
		})
		det = r.DetectionRatio
	}
	b.ReportMetric(det, "detect-no-drop-detection")
}

// BenchmarkScenarioThroughput measures raw simulator speed: events per
// second of a full protected 40-node network.
func BenchmarkScenarioThroughput(b *testing.B) {
	b.ReportAllocs()
	var events float64
	for i := 0; i < b.N; i++ {
		p := liteworp.DefaultParams()
		p.NumNodes = benchScale.Nodes
		p.Duration = 60 * time.Second
		p.Seed = int64(i) + 1
		s, err := liteworp.NewScenario(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		events = float64(s.Kernel().Processed())
	}
	b.ReportMetric(events, "events/run")
}

// BenchmarkChurnRobustness measures detection under node churn: ~10% of the
// honest nodes crash at random times during the run and reboot ~30 s later.
// Detection must survive the churn (the paper's guards are redundant) and
// delivery must not collapse — this is the robustness headline for the
// fault-injection subsystem.
func BenchmarkChurnRobustness(b *testing.B) {
	var det, delivery, falseIso, downtime float64
	for i := 0; i < b.N; i++ {
		p := liteworp.DefaultParams()
		p.NumNodes = benchScale.Nodes
		p.Duration = benchScale.Duration
		p.Seed = int64(i) + 23
		s, err := liteworp.NewScenario(p)
		if err != nil {
			b.Fatal(err)
		}
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
		plan, err := fault.RandomPlan(rand.New(rand.NewSource(p.Seed)), fault.RandomConfig{
			Nodes:      honest,
			Window:     p.Duration,
			Crashes:    len(honest) / 10,
			MeanOutage: 30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.InjectFaults(plan); err != nil {
			b.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		det = r.DetectionRatio
		delivery = r.DeliveryRatio
		falseIso = float64(r.FalselyIsolatedNodes)
		var total time.Duration
		for _, d := range r.NodeDowntime {
			total += d
		}
		downtime = total.Seconds()
	}
	b.ReportMetric(det, "detection-ratio")
	b.ReportMetric(delivery, "delivery-ratio")
	b.ReportMetric(falseIso, "falsely-isolated")
	b.ReportMetric(downtime, "downtime-s")
}

// BenchmarkNSweepDetection runs the detection-across-network-sizes sweep
// (the paper's "over a large range of scenarios" claim) at one size per
// iteration and reports detection and latency.
func BenchmarkNSweepDetection(b *testing.B) {
	var det, lat float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.NSweep(
			experiments.Scale{Runs: 1, Duration: benchScale.Duration}, []int{60}, experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		det = rows[0].Detection.Mean
		lat = rows[0].IsolationLatency.Mean
	}
	b.ReportMetric(det, "P(detect)-N60")
	b.ReportMetric(lat, "isolation-s-N60")
}
