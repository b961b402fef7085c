// Command liteworp-analysis prints the paper's closed-form analysis with
// full resolution: the Figure 5 lens geometry, the Figure 6(a)/6(b)
// coverage curves, the Figure 10 analytic detection curve, and the §5.2
// cost model — all without running a simulation.
//
// -detectors additionally races the built-in detection strategies on
// one small seeded wormhole scenario and prints each strategy's
// DetectorStats (accusation mix, false accusations, time to first
// isolation) side by side — a fast empirical complement to the analytic
// coverage curves.
//
//	liteworp-analysis
//	liteworp-analysis -psi 7 -k 5 -gamma 3 -pc0 0.05
//	liteworp-analysis -detectors -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"liteworp"
	"liteworp/internal/detector"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "liteworp-analysis:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("liteworp-analysis", flag.ContinueOnError)
	cov := liteworp.PaperCoverage()
	psi := fs.Int("psi", cov.Psi, "fabrications per window")
	k := fs.Int("k", cov.K, "per-guard detections needed to alert")
	gamma := fs.Int("gamma", cov.Gamma, "detection confidence index")
	pc0 := fs.Float64("pc0", cov.Pc0, "collision probability at the reference degree")
	nb0 := fs.Float64("nb0", cov.NB0, "reference degree for the collision model")
	r := fs.Float64("range", 30, "communication range (m)")
	nb := fs.Float64("neighbors", 8, "neighbor count for geometry/cost evaluation")
	detectors := fs.Bool("detectors", false, "race the detection strategies on one seeded scenario and compare their stats")
	seed := fs.Int64("seed", 1, "scenario seed for -detectors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *detectors {
		return compareDetectors(*seed)
	}
	cov.Psi, cov.K, cov.Gamma, cov.Pc0, cov.NB0 = *psi, *k, *gamma, *pc0, *nb0

	density := *nb / (3.141592653589793 * *r * *r)
	g := liteworp.AnalyzeGuardGeometry(*r, density)
	fmt.Printf("Guard geometry (Fig 5) at r=%gm, NB=%g:\n", *r, *nb)
	fmt.Printf("  A(x)/r^2 for x/r in 0..1:\n")
	for i := 0; i <= 10; i++ {
		x := float64(i) / 10 * *r
		fmt.Printf("    x/r=%.1f  A/r^2=%.4f\n", float64(i)/10, liteworp.LensArea(x, *r)/(*r**r))
	}
	fmt.Printf("  E[A] = %.4f r^2 (paper: 1.6 r^2)\n", g.ExpectedArea/(*r**r))
	fmt.Printf("  guards/neighbor: exact %.4f, paper 0.51\n", g.GuardsPerNeighborExact)
	fmt.Printf("  expected guards per link: %.2f (min %.2f)\n\n", g.ExpectedGuards, g.MinGuards)

	fmt.Printf("Coverage (Fig 6a/6b) with psi=%d k=%d gamma=%d Pc0=%g@NB=%g:\n",
		cov.Psi, cov.K, cov.Gamma, cov.Pc0, cov.NB0)
	fmt.Printf("  %4s %12s %14s\n", "NB", "P(detect)", "P(false alarm)")
	for x := 3.0; x <= 40; x += 1 {
		fmt.Printf("  %4.0f %12.4f %14.3e\n", x, cov.DetectionVsNeighbors(x), cov.FalseAlarmVsNeighbors(x))
	}
	fmt.Println()

	fmt.Printf("Analytic detection vs gamma (Fig 10) at NB=15:\n")
	for _, pt := range cov.DetectionVsGamma(15, []int{2, 3, 4, 5, 6, 7, 8}) {
		fmt.Printf("  gamma=%.0f  P=%.4f\n", pt.X, pt.Y)
	}
	fmt.Println()

	cost := liteworp.PaperCostModel()
	rep := cost.Report()
	fmt.Printf("Cost analysis (5.2):\n")
	fmt.Printf("  NB=%.1f  neighbor storage=%.0fB  alert buffer=%.0fB\n",
		rep.NeighborCount, rep.NeighborListBytes, rep.AlertBufferBytes)
	fmt.Printf("  nodes/REP=%.1f  watch rate=%.3f/unit  watch buffer=%.2f entries (%.0fB)\n",
		rep.NodesPerReply, rep.PacketsWatchedRate, rep.WatchEntries, rep.WatchBufferBytes)
	fmt.Printf("  total memory=%.0fB\n", rep.TotalMemoryBytes)
	return nil
}

// compareDetectors runs one small out-of-band wormhole scenario per
// built-in strategy — identical seed, topology, traffic, and attack —
// and prints each strategy's DetectorStats side by side.
func compareDetectors(seed int64) error {
	fmt.Printf("Detector comparison: N=50, M=2, out-of-band wormhole, seed=%d\n", seed)
	fmt.Printf("%-10s %12s %11s %11s %12s %14s  %s\n",
		"detector", "accusations", "false acc", "false isol", "detected", "first isol", "by reason")
	for _, kind := range detector.Names() {
		p := liteworp.DefaultParams()
		p.Seed = seed
		p.NumNodes = 50
		p.Duration = 300 * time.Second
		p.NumMalicious = 2
		p.Attack = liteworp.AttackOutOfBand
		p.Detector = kind
		s, err := liteworp.NewScenario(p)
		if err != nil {
			return err
		}
		r, err := s.Run()
		if err != nil {
			return err
		}
		d := r.Detector
		first := "-"
		if d.Detected {
			first = "+" + d.TimeToFirstIsolation.Round(time.Millisecond).String()
		}
		reasons := make([]string, 0, len(d.ByReason))
		for reason := range d.ByReason {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		mix := ""
		for i, reason := range reasons {
			if i > 0 {
				mix += " "
			}
			mix += fmt.Sprintf("%s=%d", reason, d.ByReason[reason])
		}
		fmt.Printf("%-10s %12d %11d %11d %12v %14s  %s\n",
			d.Detector, d.Accusations, d.FalseAccusations, d.FalselyIsolatedNodes, d.Detected, first, mix)
	}
	return nil
}
