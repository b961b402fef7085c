// Command liteworp-bench measures simulator throughput and emits the result
// as machine-readable JSON, so CI and the BENCH_*.json records in the repo
// root are produced by one tool instead of hand-copied benchmark output.
//
// It runs the same workload as BenchmarkScenarioThroughput — a fully
// protected network under an out-of-band wormhole — a configurable number of
// times, and reports wall-clock, allocation and event-throughput figures
// averaged over the runs. Determinism makes the event count a correctness
// probe: for a fixed seed sequence it must be identical across machines and
// optimisation levels, so the JSON includes it.
//
// Example:
//
//	liteworp-bench -runs 5 -nodes 40 -duration 60s -o BENCH_PR4.json
//
// The -nsweep mode instead measures the N-scaling frontier: for each node
// count in -ns it runs one scenario and records events/sec and bytes/node,
// emitting a sweep JSON (see BENCH_PR10.json):
//
//	liteworp-bench -nsweep -ns 40,100,400,1000,4000,10000 -o BENCH_PR10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"liteworp"
)

// Result is the machine-readable benchmark record.
type Result struct {
	Benchmark   string  `json:"benchmark"`
	Nodes       int     `json:"nodes"`
	DurationSec float64 `json:"virtual_duration_sec"`
	Runs        int     `json:"runs"`

	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`

	// EventsPerRun is the total kernel event count of the final run.
	EventsPerRun uint64  `json:"events_per_run"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// SweepRecord is one N point of the N-scaling sweep.
type SweepRecord struct {
	Nodes       int     `json:"nodes"`
	AvgDegree   float64 `json:"avg_degree"`
	DurationSec float64 `json:"virtual_duration_sec"`
	WallNs      int64   `json:"wall_ns"`

	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`

	// HeapBytes is the live heap retained by the scenario after its run
	// (post-GC, setup baseline subtracted); BytesPerNode divides it by N.
	HeapBytes    uint64  `json:"heap_bytes"`
	BytesPerNode float64 `json:"bytes_per_node"`

	// AllocBytes is the total bytes allocated over the run (churn, not
	// retention); AllocBytesPerEvent divides it by the event count.
	AllocBytes         uint64  `json:"alloc_bytes"`
	AllocBytesPerEvent float64 `json:"alloc_bytes_per_event"`
}

// Sweep is the machine-readable N-scaling record (BENCH_PR9.json).
type Sweep struct {
	Benchmark string `json:"benchmark"`
	Seed      int64  `json:"seed"`
	// Baseline names the checked-in BENCH_*.json this sweep should be
	// compared against (recorded machines differ, so only records from
	// one machine compare apples to apples).
	Baseline string        `json:"baseline,omitempty"`
	Records  []SweepRecord `json:"records"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "liteworp-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("liteworp-bench", flag.ContinueOnError)
	runs := fs.Int("runs", 3, "benchmark repetitions to average over")
	nodes := fs.Int("nodes", 40, "number of nodes N")
	duration := fs.Duration("duration", 60*time.Second, "virtual time per run")
	seed := fs.Int64("seed", 1, "seed of the first run (run i uses seed+i)")
	out := fs.String("o", "", "write JSON here instead of stdout")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the measured runs here")
	memprofile := fs.String("memprofile", "", "write an allocation profile here after the runs")
	nsweep := fs.Bool("nsweep", false, "run the N-scaling sweep over -ns instead of the single-config benchmark")
	nsFlag := fs.String("ns", defaultNs, "comma-separated node counts for -nsweep")
	baseline := fs.String("baseline", "", "name of the checked-in BENCH_*.json to compare this sweep against (recorded in the output)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs <= 0 {
		return fmt.Errorf("-runs must be positive, got %d", *runs)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	if *nsweep {
		ns, err := parseInts(*nsFlag)
		if err != nil {
			return fmt.Errorf("-ns: %w", err)
		}
		sweep, err := measureSweep(ns, *seed, *memprofile, os.Stderr)
		if err != nil {
			return err
		}
		sweep.Baseline = *baseline
		return emit(sweep, *out, stdout)
	}

	res, err := measure(*runs, *nodes, *duration, *seed)
	if err != nil {
		return err
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // flush accumulated allocation records
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return fmt.Errorf("mem profile: %w", err)
		}
	}
	return emit(res, *out, stdout)
}

// emit marshals v and writes it to the -o path or stdout.
func emit(v any, out string, stdout *os.File) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out != "" {
		return os.WriteFile(out, data, 0o644)
	}
	_, err = stdout.Write(data)
	return err
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 2 {
			return nil, fmt.Errorf("node count %d too small", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// defaultNs is the -ns default: the N-scaling frontier to 10,000 nodes.
const defaultNs = "40,100,400,1000,4000,10000"

// sweepDuration picks the virtual time simulated at node count n. Larger
// fields process far more events per virtual second (more traffic sources,
// more guards, bigger floods), so the sweep shortens the horizon as N grows
// to keep wall-clock bounded while still measuring steady-state throughput
// past the discovery phase.
func sweepDuration(n int) time.Duration {
	d := time.Duration(240 / math.Sqrt(float64(n)) * float64(time.Second))
	const floor = 3 * time.Second
	if d < floor {
		return floor
	}
	return d
}

// measureSweep runs one scenario per N point and records throughput and
// per-node memory. Progress goes to log (stderr) because a full sweep to
// N=10,000 takes minutes.
func measureSweep(ns []int, seed int64, memprofile string, progress *os.File) (*Sweep, error) {
	sweep := &Sweep{Benchmark: "NSweep", Seed: seed}
	for _, n := range ns {
		rec, err := measurePoint(n, seed, memprofile)
		if err != nil {
			return nil, fmt.Errorf("N=%d: %w", n, err)
		}
		fmt.Fprintf(progress, "liteworp-bench: N=%-6d %12.0f events/sec %10.0f bytes/node (%.1fs wall)\n",
			n, rec.EventsPerSec, rec.BytesPerNode, float64(rec.WallNs)/float64(time.Second))
		sweep.Records = append(sweep.Records, *rec)
	}
	return sweep, nil
}

// sweepDegree picks the target average degree at node count n. The paper's
// N_B=8 keeps random geometric graphs connected only at small N; full
// connectivity needs degree ~ ln N + c, so the sweep grows the density
// floor logarithmically past the paper's scale.
func sweepDegree(n int, base float64) float64 {
	if need := 1.5 * math.Log(float64(n)); need > base {
		return need
	}
	return base
}

// sweepParams builds the scenario measured at one sweep point. The sweep
// horizon is far shorter than the paper's 500 s, so the wormhole's 50 s
// start is clamped inside it: at the paper's ratio, a tenth of the way
// into the operational phase. Without the clamp no sweep point would ever
// switch the attack on.
func sweepParams(n int, seed int64) liteworp.Params {
	p := liteworp.DefaultParams()
	p.NumNodes = n
	p.AvgNeighbors = sweepDegree(n, p.AvgNeighbors)
	p.Duration = sweepDuration(n)
	if p.AttackStart >= p.Duration {
		p.AttackStart = p.Duration / 10
	}
	p.Seed = seed
	return p
}

func measurePoint(n int, seed int64, memprofile string) (*SweepRecord, error) {
	p := sweepParams(n, seed)

	var base, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	s, err := liteworp.NewScenario(p)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := s.Run(); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after) // scenario still live: retained state is in HeapAlloc
	if memprofile != "" {
		// Written while the scenario is alive, so inuse_space attributes
		// the retained per-node state (each point overwrites; last wins).
		f, err := os.Create(memprofile)
		if err != nil {
			return nil, err
		}
		err = pprof.Lookup("heap").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("mem profile: %w", err)
		}
	}
	events := s.Kernel().Processed()
	runtime.KeepAlive(s)

	rec := &SweepRecord{
		Nodes:       n,
		AvgDegree:   p.AvgNeighbors,
		DurationSec: p.Duration.Seconds(),
		WallNs:      wall.Nanoseconds(),
		Events:      events,
	}
	if wall > 0 {
		rec.EventsPerSec = float64(events) / wall.Seconds()
	}
	if after.HeapAlloc > base.HeapAlloc {
		rec.HeapBytes = after.HeapAlloc - base.HeapAlloc
		rec.BytesPerNode = float64(rec.HeapBytes) / float64(n)
	}
	if after.TotalAlloc > base.TotalAlloc {
		rec.AllocBytes = after.TotalAlloc - base.TotalAlloc
		if events > 0 {
			rec.AllocBytesPerEvent = float64(rec.AllocBytes) / float64(events)
		}
	}
	return rec, nil
}

// measure runs the throughput workload and averages the per-run figures.
// Wall-clock here is measurement, not simulation input: virtual time inside
// the kernel is seed-determined and unaffected.
func measure(runs, nodes int, duration time.Duration, seed int64) (*Result, error) {
	var (
		totalNs     int64
		totalAllocs uint64
		totalBytes  uint64
		events      uint64
	)
	for i := 0; i < runs; i++ {
		p := liteworp.DefaultParams()
		p.NumNodes = nodes
		p.Duration = duration
		p.Seed = seed + int64(i)
		s, err := liteworp.NewScenario(p)
		if err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := s.Run(); err != nil {
			return nil, err
		}
		totalNs += time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&after)
		totalAllocs += after.Mallocs - before.Mallocs
		totalBytes += after.TotalAlloc - before.TotalAlloc
		events = s.Kernel().Processed()
	}
	n := uint64(runs)
	res := &Result{
		Benchmark:    "ScenarioThroughput",
		Nodes:        nodes,
		DurationSec:  duration.Seconds(),
		Runs:         runs,
		NsPerOp:      totalNs / int64(runs),
		AllocsPerOp:  totalAllocs / n,
		BytesPerOp:   totalBytes / n,
		EventsPerRun: events,
	}
	if res.NsPerOp > 0 {
		res.EventsPerSec = float64(events) / (float64(res.NsPerOp) / float64(time.Second))
	}
	return res, nil
}
