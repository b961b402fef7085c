// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (attack taxonomy), Table 2 (simulation parameters),
// Figure 5 (guard geometry), Figures 6(a)/6(b) (coverage analysis),
// Figure 8 (cumulative packets dropped over time), Figure 9 (fraction of
// packets dropped and of wormhole routes vs number of colluders), Figure 10
// (detection probability and isolation latency vs gamma), and the §5.2
// cost analysis.
//
// Simulation experiments average over multiple seeded runs (the paper
// averages 30); the Scale type trades fidelity for wall-clock time so the
// same code serves both the test suite (Quick) and the full harness
// (Paper).
package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"liteworp"
	"liteworp/internal/analysis"
	"liteworp/internal/attack"
	"liteworp/internal/campaign"
	"liteworp/internal/detector"
	"liteworp/internal/metrics"
	"liteworp/internal/textplot"
)

// Scale sizes a simulation experiment.
type Scale struct {
	// Runs is the number of independent seeded runs to average.
	Runs int
	// Nodes is the network size N.
	Nodes int
	// Duration is the operational-phase length per run.
	Duration time.Duration
}

// Quick is a CI-friendly scale; Paper matches the publication (N=100,
// 30 runs, 2000 s horizons). Both derive from the same base through
// newScale, so a Scale field added to baseScale cannot drift between
// them.
var (
	Quick = newScale(3, 50, 300*time.Second)
	Paper = newScale(30, 100, 2000*time.Second)
)

// baseScale holds every Scale default the scales share (today none —
// Runs/Nodes/Duration are exactly the knobs that differ); any future
// field gets its one shared value here.
var baseScale = Scale{}

// newScale derives a Scale from baseScale, overriding only the size
// knobs.
func newScale(runs, nodes int, duration time.Duration) Scale {
	s := baseScale
	s.Runs, s.Nodes, s.Duration = runs, nodes, duration
	return s
}

// params layers the seed and the scale's size knobs over the one shared
// parameter base (the paper's Table 2 defaults). Every scale goes through
// this single path, so a new Params field keeps one value across scales.
func (s Scale) params(seed int64) liteworp.Params {
	p := liteworp.DefaultParams()
	p.Seed = seed
	p.NumNodes = s.Nodes
	p.Duration = s.Duration
	return p
}

// ---------------------------------------------------------------- Table 1

// Table1Row is one taxonomy row.
type Table1Row struct {
	Mode               string
	MinCompromised     int
	SpecialRequirement string
	HandledByLiteworp  bool
}

// Table1 returns the wormhole attack-mode taxonomy.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, mi := range attack.Taxonomy() {
		rows = append(rows, Table1Row{
			Mode:               mi.Name,
			MinCompromised:     mi.MinCompromised,
			SpecialRequirement: mi.SpecialRequirement,
			HandledByLiteworp:  mi.HandledByLiteworp,
		})
	}
	return rows
}

// RenderTable1 prints Table 1 as text.
func RenderTable1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: wormhole attack modes\n")
	fmt.Fprintf(&b, "%-26s %-12s %-20s %s\n", "Mode", "Min nodes", "Requirement", "LITEWORP handles")
	for _, r := range Table1() {
		fmt.Fprintf(&b, "%-26s %-12d %-20s %v\n", r.Mode, r.MinCompromised, r.SpecialRequirement, r.HandledByLiteworp)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one input-parameter row.
type Table2Row struct {
	Name  string
	Value string
}

// Table2 returns the simulation input parameters (the defaults encode the
// paper's values).
func Table2() []Table2Row {
	p := liteworp.DefaultParams()
	return []Table2Row{
		{"Tx range (r)", fmt.Sprintf("%g m", p.TxRange)},
		{"gamma (detection confidence)", fmt.Sprintf("%d (swept 2-8 in Fig 10)", p.Gamma)},
		{"Total nodes (N)", fmt.Sprintf("%d (paper: 20,50,100,150)", p.NumNodes)},
		{"Avg neighbors (NB)", fmt.Sprintf("%g", p.AvgNeighbors)},
		{"lambda (data rate)", fmt.Sprintf("%g /s", p.Lambda)},
		{"mu (dest reselection)", fmt.Sprintf("%g /s", p.Mu)},
		{"TOutRoute", p.RouteTimeout.String()},
		{"Compromised nodes (M)", fmt.Sprintf("%d (swept 0-4 in Fig 9)", p.NumMalicious)},
		{"Channel bandwidth", fmt.Sprintf("%g kbps", p.BandwidthBps/1000)},
		{"tau (watch timeout)", p.WatchTimeout.String()},
		{"T (MalC window)", p.MalCWindow.String()},
		{"C_t / V_f / V_d", fmt.Sprintf("%d / %d / %d", p.MalCThreshold, p.FabricationIncrement, p.DropIncrement)},
		{"Attack start", p.AttackStart.String()},
	}
}

// RenderTable2 prints Table 2 as text.
func RenderTable2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: simulation input parameters\n")
	for _, r := range Table2() {
		fmt.Fprintf(&b, "%-30s %s\n", r.Name, r.Value)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 5

// Figure5Result carries the guard-geometry quantities.
type Figure5Result struct {
	Geometry liteworp.GuardGeometry
	// AreaCurve samples A(x)/r^2 for x/r in [0, 1].
	AreaCurve []analysis.CurvePoint
}

// Figure5 evaluates the lens geometry at the paper's range and a density
// that yields the given neighbor count.
func Figure5(r, nb float64) Figure5Result {
	density := nb / (3.141592653589793 * r * r)
	res := Figure5Result{Geometry: liteworp.AnalyzeGuardGeometry(r, density)}
	for i := 0; i <= 20; i++ {
		x := float64(i) / 20
		res.AreaCurve = append(res.AreaCurve, analysis.CurvePoint{
			X: x,
			Y: liteworp.LensArea(x*r, r) / (r * r),
		})
	}
	return res
}

// RenderFigure5 prints the geometry summary.
func RenderFigure5() string {
	res := Figure5(30, 8)
	g := res.Geometry
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: guard-region geometry (r=30 m, NB=8)\n")
	fmt.Fprintf(&b, "A(r)  (min guard area)      = %.3f r^2\n", g.MinArea/900)
	fmt.Fprintf(&b, "E[A]  (expected guard area) = %.3f r^2 (paper rounds to 1.6)\n", g.ExpectedArea/900)
	fmt.Fprintf(&b, "guards per neighbor: exact %.3f, paper Eq.(I) %.2f\n", g.GuardsPerNeighborExact, g.GuardsPerNeighborPaper)
	fmt.Fprintf(&b, "expected guards per link at NB=8: %.2f (min %.2f)\n", g.ExpectedGuards, g.MinGuards)
	return b.String()
}

// -------------------------------------------------------------- Figure 6

// Figure6a returns the analytic detection-probability curve vs NB.
func Figure6a() []analysis.CurvePoint {
	return liteworp.PaperCoverage().DetectionCurve(3, 40, 1)
}

// Figure6b returns the analytic false-alarm curve vs NB.
func Figure6b() []analysis.CurvePoint {
	return liteworp.PaperCoverage().FalseAlarmCurve(3, 40, 1)
}

// RenderFigure6 prints both curves.
func RenderFigure6() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6(a): P(wormhole detection) vs neighbors (psi=7,k=5,gamma=3,Pc=0.05@NB=3)\n")
	for _, pt := range Figure6a() {
		if int(pt.X)%3 == 0 {
			fmt.Fprintf(&b, "  NB=%2.0f  P=%.4f\n", pt.X, pt.Y)
		}
	}
	fmt.Fprintf(&b, "Figure 6(b): P(false alarm) vs neighbors\n")
	for _, pt := range Figure6b() {
		if int(pt.X)%3 == 0 {
			fmt.Fprintf(&b, "  NB=%2.0f  P=%.2e\n", pt.X, pt.Y)
		}
	}
	return b.String()
}

// ChartFigure6 renders the coverage curves as ASCII charts.
func ChartFigure6() string {
	toXY := func(pts []analysis.CurvePoint) ([]float64, []float64) {
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.X, p.Y
		}
		return xs, ys
	}
	ax, ay := toXY(Figure6a())
	bx, by := toXY(Figure6b())
	var b strings.Builder
	b.WriteString(textplot.Line([]textplot.Series{{Name: "P(wormhole detection)", X: ax, Y: ay}},
		textplot.Options{Title: "Figure 6(a): detection probability vs neighbors", XLabel: "NB", YLabel: "P"}))
	b.WriteString("\n")
	b.WriteString(textplot.Line([]textplot.Series{{Name: "P(false alarm)", X: bx, Y: by}},
		textplot.Options{Title: "Figure 6(b): false alarm probability vs neighbors", XLabel: "NB", YLabel: "P"}))
	return b.String()
}

// ChartFigure8 renders the cumulative drop curves as an ASCII chart.
func ChartFigure8(curves []Fig8Curve) string {
	series := make([]textplot.Series, 0, len(curves))
	for _, c := range curves {
		xs := make([]float64, len(c.Times))
		for i, t := range c.Times {
			xs[i] = t.Seconds()
		}
		series = append(series, textplot.Series{Name: c.Label, X: xs, Y: c.Dropped})
	}
	return textplot.Line(series, textplot.Options{
		Title:  "Figure 8: cumulative packets dropped (attack at +50s)",
		XLabel: "seconds into operational phase", YLabel: "packets",
	})
}

// ChartFigure10 renders detection vs gamma (simulated and analytic).
func ChartFigure10(rows []Fig10Row) string {
	gx := make([]float64, len(rows))
	sim := make([]float64, len(rows))
	ana := make([]float64, len(rows))
	for i, r := range rows {
		gx[i] = float64(r.Gamma)
		sim[i] = r.SimDetection.Mean
		ana[i] = r.AnaDetection
	}
	return textplot.Line([]textplot.Series{
		{Name: "simulated", X: gx, Y: sim},
		{Name: "analytic", X: gx, Y: ana},
	}, textplot.Options{
		Title:  "Figure 10: detection probability vs gamma",
		XLabel: "gamma", YLabel: "P(detect)",
	})
}

// ------------------------------------------------------------------ runs
//
// Every simulated figure is a campaign spec: it lays out the (Params,
// seed) jobs cell-major in a fixed order (the seed formulas are pinned —
// they anchor the golden output), hands them to internal/campaign for
// fan-out, and folds the results into streaming aggregators. The engine
// feeds the collect callback in job order whatever the worker count, so
// the aggregates below are bitwise independent of parallelism.

// Options configures how the simulated experiments execute. The zero
// value reproduces the historical sequential behavior.
type Options struct {
	// Workers is the campaign pool size; <= 1 runs sequentially.
	Workers int
	// CheckpointDir, when non-empty, stores one checkpoint file per
	// figure so an interrupted or failed campaign resumes from completed
	// seeds.
	CheckpointDir string
	// Progress, when non-nil, receives per-figure completion counts.
	Progress func(figure string, done, total int)
	// Context requests graceful shutdown of the campaigns when cancelled.
	Context context.Context
	// Notice, when non-nil, receives checkpoint quarantine messages,
	// tagged with the figure.
	Notice func(figure, msg string)
}

// campaignOptions adapts the experiment options to one figure's campaign.
func (o Options) campaignOptions(figure string) campaign.Options {
	copt := campaign.Options{Workers: max(o.Workers, 1), Context: o.Context}
	if o.CheckpointDir != "" {
		copt.Checkpoint = filepath.Join(o.CheckpointDir, strings.ToLower(figure)+".json")
	}
	if o.Progress != nil {
		copt.OnProgress = func(done, total int, _ bool) { o.Progress(figure, done, total) }
	}
	if o.Notice != nil {
		copt.OnNotice = func(msg string) { o.Notice(figure, msg) }
	}
	return copt
}

// detectionAgg accumulates the detection-centric outputs Figure 10 and
// the N sweep share: detection ratio, isolation latency over fully
// isolated attackers, and the dropped fraction.
type detectionAgg struct {
	det, lat, fd metrics.MeanVar
}

func (a *detectionAgg) add(r *liteworp.Results) {
	a.det.Add(r.DetectionRatio)
	a.fd.Add(r.FractionDropped)
	for _, m := range r.Malicious {
		if m.FullyIsolated {
			a.lat.Add(m.IsolationLatency.Seconds())
		}
	}
}

// -------------------------------------------------------------- Figure 8

// Fig8Curve is one cumulative-drop curve.
type Fig8Curve struct {
	Label    string
	M        int
	Liteworp bool
	// Times are offsets from the operational start; Dropped[i] is the
	// mean cumulative dropped count at Times[i] across runs.
	Times   []time.Duration
	Dropped []float64
}

// Figure8 reproduces the cumulative dropped-packets-over-time comparison:
// M in {2, 4} colluders, with and without LITEWORP, attack starting 50 s
// into the operational phase.
func Figure8(sc Scale, step time.Duration, opt Options) ([]Fig8Curve, error) {
	type cell struct {
		m  int
		lw bool
	}
	var cells []cell
	var jobs []campaign.Job
	for _, m := range []int{2, 4} {
		for _, lw := range []bool{false, true} {
			cells = append(cells, cell{m: m, lw: lw})
			for run := 0; run < sc.Runs; run++ {
				p := sc.params(int64(1000*m + run))
				p.NumMalicious = m
				p.Attack = liteworp.AttackOutOfBand
				p.Liteworp = lw
				jobs = append(jobs, campaign.Job{
					Key:    fmt.Sprintf("F8/M=%d/lw=%v/run=%d", m, lw, run),
					Params: p,
				})
			}
		}
	}
	curves := make([]*campaign.Curve, len(cells))
	for i := range curves {
		curves[i] = campaign.NewCurve(step, sc.Duration)
	}
	err := campaign.Run(jobs, opt.campaignOptions("F8"), func(i int, _ campaign.Job, r *liteworp.Results) error {
		curves[i/sc.Runs].Add(func(off time.Duration) float64 {
			return r.DroppedAt(r.OperationalStart + off)
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Fig8Curve, len(cells))
	for i, c := range cells {
		out[i] = Fig8Curve{
			Label:    fmt.Sprintf("M=%d %s", c.m, protoName(c.lw)),
			M:        c.m,
			Liteworp: c.lw,
			Times:    curves[i].Times(),
			Dropped:  curves[i].Means(),
		}
	}
	return out, nil
}

func protoName(lw bool) string {
	if lw {
		return "with LITEWORP"
	}
	return "without LITEWORP"
}

// RenderFigure8 prints the curves as aligned columns.
func RenderFigure8(curves []Fig8Curve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: cumulative packets dropped vs time (attack at +50s)\n")
	if len(curves) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%8s", "t")
	for _, c := range curves {
		fmt.Fprintf(&b, " %22s", c.Label)
	}
	fmt.Fprintf(&b, "\n")
	for i := range curves[0].Times {
		fmt.Fprintf(&b, "%7.0fs", curves[0].Times[i].Seconds())
		for _, c := range curves {
			fmt.Fprintf(&b, " %22.1f", c.Dropped[i])
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// -------------------------------------------------------------- Figure 9

// Fig9Row is one (M, protection) cell of Figure 9.
type Fig9Row struct {
	M                int
	Liteworp         bool
	FractionDropped  metrics.Summary
	FractionWormhole metrics.Summary
	DetectionRatio   metrics.Summary
}

// Figure9 reproduces the fraction-of-packets-dropped and
// fraction-of-wormhole-routes snapshot for M = 0..4 colluders, with and
// without LITEWORP.
func Figure9(sc Scale, opt Options) ([]Fig9Row, error) {
	type cell struct {
		m  int
		lw bool
	}
	var cells []cell
	var jobs []campaign.Job
	for m := 0; m <= 4; m++ {
		for _, lw := range []bool{false, true} {
			cells = append(cells, cell{m: m, lw: lw})
			for run := 0; run < sc.Runs; run++ {
				p := sc.params(int64(2000*m + 10*run + 1))
				p.NumMalicious = m
				if m == 0 {
					p.Attack = liteworp.AttackNone
				} else if m == 1 {
					// A lone colluder cannot form a two-ended tunnel;
					// the paper notes M=1 creates no wormhole. Use the
					// relay mode (min 1 node) to exercise the check.
					p.Attack = liteworp.AttackRelay
				} else {
					p.Attack = liteworp.AttackOutOfBand
				}
				p.Liteworp = lw
				jobs = append(jobs, campaign.Job{
					Key:    fmt.Sprintf("F9/M=%d/lw=%v/run=%d", m, lw, run),
					Params: p,
				})
			}
		}
	}
	aggs := make([]struct{ fd, fw, det metrics.MeanVar }, len(cells))
	err := campaign.Run(jobs, opt.campaignOptions("F9"), func(i int, _ campaign.Job, r *liteworp.Results) error {
		a := &aggs[i/sc.Runs]
		a.fd.Add(r.FractionDropped)
		a.fw.Add(r.FractionWormhole)
		a.det.Add(r.DetectionRatio)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig9Row, len(cells))
	for i, c := range cells {
		rows[i] = Fig9Row{
			M:                c.m,
			Liteworp:         c.lw,
			FractionDropped:  aggs[i].fd.Summary(),
			FractionWormhole: aggs[i].fw.Summary(),
			DetectionRatio:   aggs[i].det.Summary(),
		}
	}
	return rows, nil
}

// RenderFigure9 prints the rows.
func RenderFigure9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: fraction dropped / fraction wormhole routes vs M\n")
	fmt.Fprintf(&b, "%3s %-18s %16s %18s %12s\n", "M", "protocol", "frac dropped", "frac worm routes", "detection")
	for _, r := range rows {
		fmt.Fprintf(&b, "%3d %-18s %16.4f %18.4f %12.2f\n",
			r.M, protoName(r.Liteworp), r.FractionDropped.Mean, r.FractionWormhole.Mean, r.DetectionRatio.Mean)
	}
	return b.String()
}

// ------------------------------------------------------------- Figure 10

// Fig10Row is one gamma setting of Figure 10.
type Fig10Row struct {
	Gamma int
	// SimDetection is the fraction of attackers fully isolated across
	// runs; AnaDetection is the coverage-analysis prediction.
	SimDetection     metrics.Summary
	AnaDetection     float64
	IsolationLatency metrics.Summary // seconds, over fully isolated attackers
}

// Figure10 sweeps gamma and reports simulated detection probability and
// isolation latency against the analytic curve (at NB = 15 in the paper;
// we keep the scenario's density and evaluate the analysis at the same
// neighbor count).
func Figure10(sc Scale, gammas []int, opt Options) ([]Fig10Row, error) {
	if len(gammas) == 0 {
		gammas = []int{2, 3, 4, 5, 6, 7, 8}
	}
	var jobs []campaign.Job
	for _, g := range gammas {
		for run := 0; run < sc.Runs; run++ {
			p := sc.params(int64(3000*g + 10*run + 7))
			p.NumMalicious = 2
			p.Attack = liteworp.AttackOutOfBand
			p.Gamma = g
			jobs = append(jobs, campaign.Job{
				Key:    fmt.Sprintf("F10/gamma=%d/run=%d", g, run),
				Params: p,
			})
		}
	}
	aggs := make([]detectionAgg, len(gammas))
	err := campaign.Run(jobs, opt.campaignOptions("F10"), func(i int, _ campaign.Job, r *liteworp.Results) error {
		aggs[i/sc.Runs].add(r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	cov := liteworp.PaperCoverage()
	rows := make([]Fig10Row, len(gammas))
	for i, g := range gammas {
		cg := cov
		cg.Gamma = g
		rows[i] = Fig10Row{
			Gamma:            g,
			SimDetection:     aggs[i].det.Summary(),
			AnaDetection:     cg.DetectionVsNeighbors(15),
			IsolationLatency: aggs[i].lat.Summary(),
		}
	}
	return rows, nil
}

// RenderFigure10 prints the rows.
func RenderFigure10(rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: detection probability and isolation latency vs gamma\n")
	fmt.Fprintf(&b, "%6s %14s %14s %22s\n", "gamma", "sim P(detect)", "ana P(detect)", "isolation latency (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %14.3f %14.3f %22.2f\n",
			r.Gamma, r.SimDetection.Mean, r.AnaDetection, r.IsolationLatency.Mean)
	}
	return b.String()
}

// ------------------------------------------------------------------ cost

// RenderCost prints the §5.2 cost analysis.
func RenderCost() string {
	c := liteworp.PaperCostModel()
	r := c.Report()
	var b strings.Builder
	fmt.Fprintf(&b, "Cost analysis (paper 5.2, N=100, h=4, f=1/4, NB=10)\n")
	fmt.Fprintf(&b, "neighbor count NB            = %.1f\n", r.NeighborCount)
	fmt.Fprintf(&b, "two-hop neighbor storage     = %.0f B (< 0.5 KB)\n", r.NeighborListBytes)
	fmt.Fprintf(&b, "alert buffer                 = %.0f B\n", r.AlertBufferBytes)
	fmt.Fprintf(&b, "nodes watching each REP      = %.1f\n", r.NodesPerReply)
	fmt.Fprintf(&b, "packets watched per unit     = %.3f\n", r.PacketsWatchedRate)
	fmt.Fprintf(&b, "steady watch buffer          = %.2f entries (%.0f B)\n", r.WatchEntries, r.WatchBufferBytes)
	fmt.Fprintf(&b, "total LITEWORP memory        = %.0f B\n", r.TotalMemoryBytes)
	return b.String()
}

// ----------------------------------------------------------- N sweep

// NSweepRow is one network size of the detection-across-sizes sweep.
type NSweepRow struct {
	N                int
	Detection        metrics.Summary
	IsolationLatency metrics.Summary // seconds
	FractionDropped  metrics.Summary
}

// NSweep reproduces the paper's claim that "every wormhole is detected and
// isolated within a very short period of time over a large range of
// scenarios": the Table 2 network sizes N in {20, 50, 100, 150} under the
// out-of-band wormhole with LITEWORP.
func NSweep(sc Scale, sizes []int, opt Options) ([]NSweepRow, error) {
	if len(sizes) == 0 {
		sizes = []int{20, 50, 100, 150}
	}
	var jobs []campaign.Job
	for _, n := range sizes {
		for run := 0; run < sc.Runs; run++ {
			p := sc.params(int64(5000*n + 10*run + 3))
			p.NumNodes = n
			p.NumMalicious = 2
			p.Attack = liteworp.AttackOutOfBand
			jobs = append(jobs, campaign.Job{
				Key:    fmt.Sprintf("N1/N=%d/run=%d", n, run),
				Params: p,
			})
		}
	}
	aggs := make([]detectionAgg, len(sizes))
	err := campaign.Run(jobs, opt.campaignOptions("N1"), func(i int, _ campaign.Job, r *liteworp.Results) error {
		aggs[i/sc.Runs].add(r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]NSweepRow, len(sizes))
	for i, n := range sizes {
		rows[i] = NSweepRow{
			N:                n,
			Detection:        aggs[i].det.Summary(),
			IsolationLatency: aggs[i].lat.Summary(),
			FractionDropped:  aggs[i].fd.Summary(),
		}
	}
	return rows, nil
}

// ------------------------------------------- detector comparison (D1)

// DetectorCell is one (detector, M) cell of the detector-comparison
// campaign: the same seeded attacks watched by one detection strategy.
type DetectorCell struct {
	Detector string
	M        int
	// Detection is the fraction of attackers fully isolated per run (the
	// detection-probability curve's Y axis).
	Detection metrics.Summary
	// FirstIsolation is seconds from attack start to the first isolation
	// verdict, over the runs that detected anything (isolation latency).
	FirstIsolation metrics.Summary
	// FalseAccusations and FalselyIsolated are the per-run false-positive
	// costs: accusations against honest nodes and distinct honest nodes
	// isolated by at least one observer.
	FalseAccusations metrics.Summary
	FalselyIsolated  metrics.Summary
	// FractionDropped shows what the attack still cost under each
	// strategy's response.
	FractionDropped metrics.Summary
}

// DetectorComparison races detection strategies under identical seeds,
// topologies, and out-of-band wormhole attacks: every cell with the same
// M replays byte-identical radio schedules up to each strategy's first
// isolation, so the curves differ only through what gets accused. Empty
// inputs default to every built-in strategy and the paper's M in {2, 4}.
func DetectorComparison(sc Scale, detectors []string, ms []int, opt Options) ([]DetectorCell, error) {
	if len(detectors) == 0 {
		detectors = detector.Names()
	}
	if len(ms) == 0 {
		ms = []int{2, 4}
	}
	type cell struct {
		det string
		m   int
	}
	var cells []cell
	var jobs []campaign.Job
	for _, d := range detectors {
		for _, m := range ms {
			cells = append(cells, cell{det: d, m: m})
			for run := 0; run < sc.Runs; run++ {
				// The seed must not depend on the detector: equal (M, run)
				// means equal topology, traffic, and attack across
				// strategies — that is what makes the race fair.
				p := sc.params(int64(23000*m + 10*run + 1))
				p.NumMalicious = m
				p.Attack = liteworp.AttackOutOfBand
				p.Detector = d
				jobs = append(jobs, campaign.Job{
					Key:    fmt.Sprintf("D1/%s/M=%d/run=%d", d, m, run),
					Params: p,
				})
			}
		}
	}
	aggs := make([]struct{ det, lat, fa, fi, fd metrics.MeanVar }, len(cells))
	err := campaign.Run(jobs, opt.campaignOptions("D1"), func(i int, _ campaign.Job, r *liteworp.Results) error {
		a := &aggs[i/sc.Runs]
		a.det.Add(r.DetectionRatio)
		if r.Detector.Detected {
			a.lat.Add(r.Detector.TimeToFirstIsolation.Seconds())
		}
		a.fa.Add(float64(r.Detector.FalseAccusations))
		a.fi.Add(float64(r.Detector.FalselyIsolatedNodes))
		a.fd.Add(r.FractionDropped)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]DetectorCell, len(cells))
	for i, c := range cells {
		out[i] = DetectorCell{
			Detector:         detector.Canonical(c.det),
			M:                c.m,
			Detection:        aggs[i].det.Summary(),
			FirstIsolation:   aggs[i].lat.Summary(),
			FalseAccusations: aggs[i].fa.Summary(),
			FalselyIsolated:  aggs[i].fi.Summary(),
			FractionDropped:  aggs[i].fd.Summary(),
		}
	}
	return out, nil
}

// RenderDetectorComparison prints the cells.
func RenderDetectorComparison(cells []DetectorCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Detector comparison: OOB wormhole under identical seeds\n")
	fmt.Fprintf(&b, "%-10s %3s %12s %18s %12s %14s %14s\n",
		"detector", "M", "P(detect)", "first isol (s)", "false acc", "false isol", "frac dropped")
	for _, c := range cells {
		first := "-"
		if c.FirstIsolation.HasValues {
			first = fmt.Sprintf("%.2f", c.FirstIsolation.Mean)
		}
		fmt.Fprintf(&b, "%-10s %3d %12.3f %18s %12.2f %14.2f %14.4f\n",
			c.Detector, c.M, c.Detection.Mean, first,
			c.FalseAccusations.Mean, c.FalselyIsolated.Mean, c.FractionDropped.Mean)
	}
	return b.String()
}

// RenderNSweep prints the rows.
func RenderNSweep(rows []NSweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Detection across network sizes (OOB wormhole, M=2, with LITEWORP)\n")
	fmt.Fprintf(&b, "%6s %12s %20s %16s\n", "N", "P(detect)", "isolation (s)", "frac dropped")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %12.3f %20.2f %16.4f\n",
			r.N, r.Detection.Mean, r.IsolationLatency.Mean, r.FractionDropped.Mean)
	}
	return b.String()
}
