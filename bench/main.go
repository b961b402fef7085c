// Command bench is the repository's benchmark. It sets up and simulates
// fixed batches of LITEWORP scenarios (the workloads), reports set-up time,
// run time and retained heap per workload, checks that every repetition of
// a scenario reproduces the same event count and Results digest, and in a
// traced run charges CPU and heap to the simulator's layers.
//
// From the repository root, building from source first:
//
//	bash bench/run.sh --workload paper-n100 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1 --trace 1 -o bench.json   # every workload
//	bash bench/run.sh -compare base.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads, the metrics and how to read a comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	// The simulator runs on one goroutine. With a second P, the concurrent
	// GC worker and the goroutine moving between CPUs made the same rep
	// vary by about ±30% on a shared 2-CPU host, against about ±5% with
	// one P; one P is also how a campaign worker runs a scenario.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns the exit code: 0 when every
// check passed, 1 when one failed, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all to interleave every workload")
	seed := fs.Int64("seed", 1, "workload seed; the scenario seeds derive from it")
	seconds := fs.Int("seconds", 25, "time the reps of each workload for about this long (at least 3 reps)")
	trace := fs.Int("trace", 0, "1: add a traced rep per workload and report the per-layer metrics")
	scale := fs.String("scale", "full", "full, or smoke: 100-node horizons divided by 50, the flood at N=200 over 3 s")
	out := fs.String("o", "", "also write the full record (every rep, every check) to this file")
	compare := fs.Bool("compare", false, "compare two records given as arguments: base.json new.json")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark description holding the bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two records: base.json new.json")
			return 2
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 0 || (*scale != "full" && *scale != "smoke") {
		fmt.Fprintln(stderr, "bench: want -trace 0|1, -seconds >= 0, -scale full|smoke and no arguments")
		return 2
	}
	ws, err := selectWorkloads(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *scale == "smoke"}
	runs, cals := measure(ws, o, stderr)
	rec := newRecord(o, runs, cals)
	res := summarize(rec, o.trace)
	for _, w := range rec.Workloads {
		if w.Failed > 0 {
			fmt.Fprintf(stderr, "bench: %s: %d of %d scenario runs failed: %v\n", w.Name, w.Failed, w.Attempted, w.Errors)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
