package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tiny is an even faster scale for unit tests.
var tiny = Scale{Runs: 2, Nodes: 40, Duration: 200 * time.Second}

// TestScaleParamsShareOneBase guards the satellite contract that Quick
// and Paper derive from one parameter base: layering the scales over the
// same seed must differ in nothing but the declared size knobs, so a new
// Params field cannot silently drift between them.
func TestScaleParamsShareOneBase(t *testing.T) {
	q, p := Quick.params(42), Paper.params(42)
	q.NumNodes, p.NumNodes = 0, 0
	q.Duration, p.Duration = 0, 0
	if q != p {
		t.Fatalf("Quick and Paper params diverge beyond Nodes/Duration:\nquick: %+v\npaper: %+v", q, p)
	}
	if Quick.Runs == Paper.Runs {
		t.Fatal("scales should still differ in their size knobs")
	}
}

// TestCampaignMatchesSequential runs one figure through the campaign
// engine at workers=1 and workers=8: the returned rows must be deeply
// equal, including every Summary statistic.
func TestCampaignMatchesSequential(t *testing.T) {
	gammas := []int{2, 6}
	seq, err := Figure10(tiny, gammas, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Figure10(tiny, gammas, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Figure 10 rows depend on worker count:\nworkers=1: %+v\nworkers=8: %+v", seq, par)
	}
}

// TestFigureFailureNamesRun: a run that fails stops its figure with an
// error naming the run's key and seed, and the figure's checkpoint keeps
// the run completed before it. Here the N=1 network is rejected by
// parameter validation.
func TestFigureFailureNamesRun(t *testing.T) {
	dir := t.TempDir()
	_, err := NSweep(Scale{Runs: 1, Duration: 100 * time.Second}, []int{20, 1}, Options{Workers: 2, CheckpointDir: dir})
	if err == nil || !strings.Contains(err.Error(), "(N1/N=1/run=0) seed 5003") {
		t.Fatalf("err = %v, want the failure of N1/N=1/run=0 with its seed", err)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, "n1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ckpt), `"key":"N1/N=20/run=0"`) || strings.Contains(string(ckpt), `"key":"N1/N=1/run=0"`) {
		t.Errorf("checkpoint should hold the completed N=20 run and nothing for the failed one:\n%.300s", ckpt)
	}
}

// TestFigureCheckpointResume exercises the Options plumbing end to end:
// a checkpointed figure rerun restores every seed and reproduces the
// first result exactly.
func TestFigureCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Workers: 2, CheckpointDir: dir}
	var calls int
	opt.Progress = func(figure string, done, total int) {
		if figure != "F8" {
			t.Errorf("progress for %q, want F8", figure)
		}
		calls++
	}
	first, err := Figure8(tiny, 100*time.Second, opt)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("no progress reported")
	}
	if _, err := os.Stat(filepath.Join(dir, "f8.json")); err != nil {
		t.Fatalf("per-figure checkpoint missing: %v", err)
	}
	resumed, err := Figure8(tiny, 100*time.Second, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, resumed) {
		t.Fatal("checkpoint resume changed the Figure 8 curves")
	}
}

func TestTable1HasFiveModes(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("Table 1 rows = %d", len(rows))
	}
	handled := 0
	for _, r := range rows {
		if r.HandledByLiteworp {
			handled++
		}
	}
	if handled != 4 {
		t.Fatalf("LITEWORP should handle 4 of 5 modes, got %d", handled)
	}
	if out := RenderTable1(); !strings.Contains(out, "Packet encapsulation") {
		t.Fatal("render missing encapsulation row")
	}
}

func TestTable2CoversPaperParameters(t *testing.T) {
	rows := Table2()
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.Value == "" {
			t.Fatalf("empty value for %s", r.Name)
		}
	}
	for _, want := range []string{"Tx range (r)", "TOutRoute", "lambda (data rate)", "Channel bandwidth"} {
		if !names[want] {
			t.Fatalf("Table 2 missing %q", want)
		}
	}
	if out := RenderTable2(); !strings.Contains(out, "30 m") {
		t.Fatal("render missing range value")
	}
}

func TestFigure5Geometry(t *testing.T) {
	res := Figure5(30, 8)
	g := res.Geometry
	// A(x)/r^2 decreasing from pi to ~1.228 at x=r.
	if len(res.AreaCurve) != 21 {
		t.Fatalf("curve points = %d", len(res.AreaCurve))
	}
	first, last := res.AreaCurve[0], res.AreaCurve[len(res.AreaCurve)-1]
	if first.Y < 3.14 || first.Y > 3.15 {
		t.Fatalf("A(0)/r^2 = %g, want pi", first.Y)
	}
	if last.Y < 1.22 || last.Y > 1.24 {
		t.Fatalf("A(r)/r^2 = %g, want ~1.228", last.Y)
	}
	if g.NeighborCount < 7.9 || g.NeighborCount > 8.1 {
		t.Fatalf("NB = %g", g.NeighborCount)
	}
	if g.ExpectedGuards <= g.MinGuards {
		t.Fatal("expected guards should exceed minimum guards")
	}
	if out := RenderFigure5(); !strings.Contains(out, "guards per neighbor") {
		t.Fatal("render incomplete")
	}
}

func TestFigure6Curves(t *testing.T) {
	a := Figure6a()
	bcurve := Figure6b()
	if len(a) == 0 || len(bcurve) == 0 {
		t.Fatal("empty curves")
	}
	var peak float64
	for _, pt := range a {
		if pt.Y > peak {
			peak = pt.Y
		}
	}
	if peak < 0.8 {
		t.Fatalf("Fig 6a peak = %g", peak)
	}
	for _, pt := range bcurve {
		if pt.Y > 2e-3 {
			t.Fatalf("Fig 6b false alarm %g at NB=%g not negligible", pt.Y, pt.X)
		}
	}
	if out := RenderFigure6(); !strings.Contains(out, "6(a)") || !strings.Contains(out, "6(b)") {
		t.Fatal("render incomplete")
	}
}

func TestFigure8Shape(t *testing.T) {
	curves, err := Figure8(tiny, 50*time.Second, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("curves = %d", len(curves))
	}
	byLabel := map[string]Fig8Curve{}
	for _, c := range curves {
		byLabel[c.Label] = c
		// Monotone nondecreasing cumulative counts.
		for i := 1; i < len(c.Dropped); i++ {
			if c.Dropped[i] < c.Dropped[i-1] {
				t.Fatalf("%s: cumulative decreased at %v", c.Label, c.Times[i])
			}
		}
	}
	// Shape: baseline curves keep growing; LITEWORP curves plateau after
	// isolation. Compare late-phase growth.
	for _, m := range []string{"M=2", "M=4"} {
		base := byLabel[m+" without LITEWORP"]
		lw := byLabel[m+" with LITEWORP"]
		n := len(base.Dropped)
		if n < 3 {
			t.Fatal("too few samples")
		}
		baseFinal := base.Dropped[n-1]
		lwFinal := lw.Dropped[n-1]
		if baseFinal == 0 {
			t.Fatalf("%s baseline dropped nothing", m)
		}
		if lwFinal >= baseFinal {
			t.Fatalf("%s: LITEWORP final drops %.1f >= baseline %.1f", m, lwFinal, baseFinal)
		}
		// LITEWORP late growth (last third) must be a small share of its
		// total — the plateau.
		lwLate := lw.Dropped[n-1] - lw.Dropped[2*n/3]
		if lwFinal > 0 && lwLate/lwFinal > 0.35 {
			t.Fatalf("%s: LITEWORP curve still growing late (%.1f of %.1f)", m, lwLate, lwFinal)
		}
	}
	if out := RenderFigure8(curves); !strings.Contains(out, "Figure 8") {
		t.Fatal("render incomplete")
	}
}

func TestFigure9Shape(t *testing.T) {
	rows, err := Figure9(tiny, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(m int, lw bool) Fig9Row {
		for _, r := range rows {
			if r.M == m && r.Liteworp == lw {
				return r
			}
		}
		t.Fatalf("row M=%d lw=%v missing", m, lw)
		return Fig9Row{}
	}
	// M=0: no damage either way.
	if get(0, false).FractionDropped.Mean != 0 || get(0, true).FractionDropped.Mean != 0 {
		t.Fatal("M=0 shows attack damage")
	}
	// Baseline: wormholes capture routes and drop packets for M>=2.
	for _, m := range []int{2, 4} {
		b := get(m, false)
		if b.FractionDropped.Mean == 0 || b.FractionWormhole.Mean == 0 {
			t.Fatalf("baseline M=%d shows no damage: %+v", m, b)
		}
		l := get(m, true)
		if l.FractionDropped.Mean >= b.FractionDropped.Mean {
			t.Fatalf("M=%d: LITEWORP dropped fraction %.4f >= baseline %.4f",
				m, l.FractionDropped.Mean, b.FractionDropped.Mean)
		}
		if l.DetectionRatio.Mean < 0.5 {
			t.Fatalf("M=%d detection ratio %.2f", m, l.DetectionRatio.Mean)
		}
	}
	// Baseline damage grows with M (2 -> 4).
	if get(4, false).FractionDropped.Mean <= get(2, false).FractionDropped.Mean*0.5 {
		t.Fatalf("baseline damage does not grow with M: M=2 %.4f, M=4 %.4f",
			get(2, false).FractionDropped.Mean, get(4, false).FractionDropped.Mean)
	}
	if out := RenderFigure9(rows); !strings.Contains(out, "Figure 9") {
		t.Fatal("render incomplete")
	}
}

func TestFigure10Shape(t *testing.T) {
	rows, err := Figure10(tiny, []int{2, 4, 6}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Analytic detection decreases with gamma.
	for i := 1; i < len(rows); i++ {
		if rows[i].AnaDetection > rows[i-1].AnaDetection+1e-9 {
			t.Fatal("analytic detection increased with gamma")
		}
	}
	// Low gamma: simulation detects essentially always, latency small.
	if rows[0].SimDetection.Mean < 0.5 {
		t.Fatalf("gamma=2 sim detection = %.2f", rows[0].SimDetection.Mean)
	}
	if rows[0].IsolationLatency.HasValues && rows[0].IsolationLatency.Mean > 60 {
		t.Fatalf("gamma=2 isolation latency = %.1fs", rows[0].IsolationLatency.Mean)
	}
	if out := RenderFigure10(rows); !strings.Contains(out, "Figure 10") {
		t.Fatal("render incomplete")
	}
}

func TestRenderCost(t *testing.T) {
	out := RenderCost()
	for _, want := range []string{"neighbor count", "watch buffer", "total LITEWORP memory"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cost render missing %q:\n%s", want, out)
		}
	}
}

func TestChartsRender(t *testing.T) {
	if out := ChartFigure6(); !strings.Contains(out, "6(a)") || !strings.Contains(out, "6(b)") {
		t.Fatal("figure 6 charts incomplete")
	}
	curves, err := Figure8(tiny, 100*time.Second, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := ChartFigure8(curves); !strings.Contains(out, "Figure 8") || !strings.Contains(out, "M=2") {
		t.Fatal("figure 8 chart incomplete")
	}
	rows, err := Figure10(tiny, []int{2, 6}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := ChartFigure10(rows); !strings.Contains(out, "simulated") || !strings.Contains(out, "analytic") {
		t.Fatal("figure 10 chart incomplete")
	}
}

func TestNSweepDetectsEverywhere(t *testing.T) {
	rows, err := NSweep(Scale{Runs: 1, Nodes: 0, Duration: 200 * time.Second}, []int{20, 60}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Detection.Mean < 0.5 {
			t.Fatalf("N=%d detection = %.2f", r.N, r.Detection.Mean)
		}
		if r.IsolationLatency.HasValues && r.IsolationLatency.Mean > 90 {
			t.Fatalf("N=%d isolation latency = %.1fs", r.N, r.IsolationLatency.Mean)
		}
	}
	if out := RenderNSweep(rows); !strings.Contains(out, "network sizes") {
		t.Fatal("render incomplete")
	}
}

// TestDetectorCampaignMatchesSequential runs the detector comparison at
// workers=1 and workers=8: identical seeds must yield bitwise-equal
// aggregates per detector whatever the parallelism.
func TestDetectorCampaignMatchesSequential(t *testing.T) {
	detectors := []string{"liteworp", "none"}
	seq, err := DetectorComparison(tiny, detectors, []int{2}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := DetectorComparison(tiny, detectors, []int{2}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("detector cells depend on worker count:\nworkers=1: %+v\nworkers=8: %+v", seq, par)
	}
}

// TestDetectorComparisonRacesAllStrategies checks the campaign covers
// every requested strategy under identical attacks and that the reference
// strategy detects while the null strategy never accuses.
func TestDetectorComparisonRacesAllStrategies(t *testing.T) {
	detectors := []string{"liteworp", "none", "range", "zscore"}
	cells, err := DetectorComparison(tiny, detectors, []int{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(detectors) {
		t.Fatalf("cells = %d, want %d", len(cells), len(detectors))
	}
	byDet := make(map[string]DetectorCell, len(cells))
	for _, c := range cells {
		byDet[c.Detector] = c
		if c.M != 2 {
			t.Fatalf("cell M = %d", c.M)
		}
	}
	if byDet["liteworp"].Detection.Mean == 0 {
		t.Fatalf("reference strategy detected nothing: %+v", byDet["liteworp"])
	}
	if none := byDet["none"]; none.Detection.Mean != 0 || none.FalseAccusations.Mean != 0 {
		t.Fatalf("null strategy produced detections: %+v", none)
	}
	if out := RenderDetectorComparison(cells); !strings.Contains(out, "liteworp") || !strings.Contains(out, "zscore") {
		t.Fatal("render incomplete")
	}
}
