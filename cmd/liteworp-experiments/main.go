// Command liteworp-experiments regenerates every table and figure of the
// paper's evaluation section.
//
//	liteworp-experiments                      # everything at quick scale
//	liteworp-experiments -scale paper         # publication scale (slow)
//	liteworp-experiments -only F8,F10         # a subset
//	liteworp-experiments -parallel 0          # fan seeded runs over all cores
//	liteworp-experiments -checkpoint state/   # resume interrupted campaigns
//	liteworp-experiments -json                # machine-readable results
//
// IDs: T1 T2 F5 F6a F6b F8 F9 F10 N1 D1 C1.
//
// D1 is the detector comparison: the built-in detection strategies
// (liteworp, zscore, range, none) race against the same seeded wormhole
// attacks, yielding detection probability, first-isolation latency, and
// false-positive curves per strategy.
//
// Simulated experiments (F8 F9 F10 N1 D1) execute through the
// internal/campaign engine: -parallel sets the worker-pool size (each
// seeded run stays single-threaded and the aggregates are identical for
// any worker count), -checkpoint names a directory where completed seeds
// are persisted so an interrupted campaign resumes instead of
// restarting, and per-figure progress is reported on stderr.
//
// A run that errors or panics fails its figure: the process exits 1 with
// an error naming the figure, the run's key and seed (and a panic's
// stack), and every run completed before it stays in the checkpoint, so
// a rerun with the same -checkpoint resumes from there. A figure's run
// count is fixed by the scale and -runs; no run is ever skipped.
// SIGINT/SIGTERM trigger a graceful drain: in-flight runs finish and are
// checkpointed, then the process exits 130 with the campaign
// interrupted; a second signal exits immediately.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"liteworp"
	"liteworp/internal/campaign"
	"liteworp/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "liteworp-experiments:", err)
		if errors.Is(err, campaign.ErrInterrupted) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("liteworp-experiments", flag.ContinueOnError)
	scaleName := fs.String("scale", "quick", "experiment scale: quick|paper")
	only := fs.String("only", "", "comma-separated experiment IDs (default: all)")
	runs := fs.Int("runs", 0, "override number of runs per data point")
	plot := fs.Bool("plot", false, "render figures as ASCII charts too")
	parallel := fs.Int("parallel", 1, "campaign workers for simulated experiments (0 = all CPU cores, 1 = sequential)")
	jsonOut := fs.Bool("json", false, "emit one JSON object per experiment on stdout instead of text")
	checkpoint := fs.String("checkpoint", "", "directory of campaign checkpoints; interrupted or failed campaigns resume from completed seeds")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick
	case "paper":
		scale = experiments.Paper
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	if *runs > 0 {
		scale.Runs = *runs
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if *checkpoint != "" {
		if err := os.MkdirAll(*checkpoint, 0o755); err != nil {
			return err
		}
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the campaign
	// context — dispatch stops, in-flight runs drain and are checkpointed,
	// and run returns wrapping campaign.ErrInterrupted. A second signal
	// aborts immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer func() {
		// Stop first so close cannot race a Notify send; close then
		// releases the handler goroutine.
		signal.Stop(sigCh)
		close(sigCh)
	}()
	go func() {
		s, ok := <-sigCh
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "liteworp-experiments: %v: draining in-flight runs (checkpoint stays resumable; signal again to exit now)\n", s)
		cancel()
		if _, ok := <-sigCh; ok {
			os.Exit(130)
		}
	}()

	// Progress and quarantine notices both arrive on the goroutine that
	// runs the figure, so they print in order without a lock.
	opt := experiments.Options{
		Workers:       workers,
		CheckpointDir: *checkpoint,
		Context:       ctx,
		Progress: func(figure string, done, total int) {
			fmt.Fprintf(os.Stderr, "%s: %d/%d runs\n", figure, done, total)
		},
		Notice: func(figure, msg string) { fmt.Fprintf(os.Stderr, "%s: %s\n", figure, msg) },
	}

	type experiment struct {
		id  string
		fn  func() (data any, text string, err error)
		sim bool
	}
	exps := []experiment{
		{"T1", func() (any, string, error) { return experiments.Table1(), experiments.RenderTable1(), nil }, false},
		{"T2", func() (any, string, error) { return experiments.Table2(), experiments.RenderTable2(), nil }, false},
		{"F5", func() (any, string, error) { return experiments.Figure5(30, 8), experiments.RenderFigure5(), nil }, false},
		{"F6A", func() (any, string, error) {
			data := map[string]any{"detection": experiments.Figure6a(), "falseAlarm": experiments.Figure6b()}
			out := experiments.RenderFigure6()
			if *plot {
				out += "\n" + experiments.ChartFigure6()
			}
			return data, out, nil
		}, false},
		{"F6B", func() (any, string, error) {
			data := map[string]any{"detection": experiments.Figure6a(), "falseAlarm": experiments.Figure6b()}
			return data, experiments.RenderFigure6(), nil
		}, false},
		{"F8", func() (any, string, error) {
			curves, err := experiments.Figure8(scale, scale.Duration/10, opt)
			if err != nil {
				return nil, "", err
			}
			out := experiments.RenderFigure8(curves)
			if *plot {
				out += "\n" + experiments.ChartFigure8(curves)
			}
			return curves, out, nil
		}, true},
		{"F9", func() (any, string, error) {
			rows, err := experiments.Figure9(scale, opt)
			if err != nil {
				return nil, "", err
			}
			return rows, experiments.RenderFigure9(rows), nil
		}, true},
		{"F10", func() (any, string, error) {
			rows, err := experiments.Figure10(scale, nil, opt)
			if err != nil {
				return nil, "", err
			}
			out := experiments.RenderFigure10(rows)
			if *plot {
				out += "\n" + experiments.ChartFigure10(rows)
			}
			return rows, out, nil
		}, true},
		{"N1", func() (any, string, error) {
			rows, err := experiments.NSweep(scale, nil, opt)
			if err != nil {
				return nil, "", err
			}
			return rows, experiments.RenderNSweep(rows), nil
		}, true},
		{"D1", func() (any, string, error) {
			cells, err := experiments.DetectorComparison(scale, nil, nil, opt)
			if err != nil {
				return nil, "", err
			}
			return cells, experiments.RenderDetectorComparison(cells), nil
		}, true},
		{"C1", func() (any, string, error) { return liteworp.PaperCostModel().Report(), experiments.RenderCost(), nil }, false},
	}

	known := map[string]bool{}
	validIDs := make([]string, 0, len(exps))
	for _, e := range exps {
		known[e.id] = true
		validIDs = append(validIDs, e.id)
	}
	want := map[string]bool{}
	if *only != "" {
		var unknown []string
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if id == "" {
				continue
			}
			if !known[id] {
				unknown = append(unknown, id)
				continue
			}
			want[id] = true
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			return fmt.Errorf("unknown experiment ID(s) %s; valid IDs: %s",
				strings.Join(unknown, ", "), strings.Join(validIDs, ", "))
		}
		if len(want) == 0 {
			return fmt.Errorf("-only selected nothing; valid IDs: %s", strings.Join(validIDs, ", "))
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	enc := json.NewEncoder(os.Stdout)
	seen := map[string]bool{}
	for _, e := range exps {
		if !selected(e.id) || seen[e.id] {
			continue
		}
		// F6A/F6B render together; avoid printing twice when both match.
		if e.id == "F6A" || e.id == "F6B" {
			seen["F6A"], seen["F6B"] = true, true
		}
		seen[e.id] = true
		expStart := time.Now()
		data, out, err := e.fn()
		if err != nil {
			if e.sim && *checkpoint != "" {
				fmt.Fprintf(os.Stderr, "%s stopped; completed runs are checkpointed, re-run with -checkpoint %s to resume\n", e.id, *checkpoint)
			}
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if *jsonOut {
			record := struct {
				ID       string  `json:"id"`
				Runs     int     `json:"runs,omitempty"`
				Nodes    int     `json:"nodes,omitempty"`
				Duration float64 `json:"durationSeconds,omitempty"`
				Workers  int     `json:"workers,omitempty"`
				WallMS   int64   `json:"wallMillis"`
				Data     any     `json:"data"`
			}{ID: e.id, WallMS: time.Since(expStart).Milliseconds(), Data: data}
			if e.sim {
				record.Runs, record.Nodes = scale.Runs, scale.Nodes
				record.Duration = scale.Duration.Seconds()
				record.Workers = workers
			}
			if err := enc.Encode(record); err != nil {
				return err
			}
			continue
		}
		fmt.Printf("==== %s ====\n%s", e.id, out)
		if e.sim {
			fmt.Printf("(%d runs x %d nodes x %v, %d worker(s), wall %v)\n",
				scale.Runs, scale.Nodes, scale.Duration, workers, time.Since(expStart).Round(time.Millisecond))
		}
		fmt.Println()
	}
	return nil
}
