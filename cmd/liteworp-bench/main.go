// Command liteworp-bench measures the N-scaling frontier: for each node
// count in -ns it runs one scenario and records events/sec and bytes/node,
// emitting a sweep JSON (see BENCH_PR10.json):
//
//	liteworp-bench -nsweep -ns 40,100,400,1000,4000,10000 -o BENCH_PR10.json
//
// -nsweep is its only mode. The repository benchmark, bench/run.sh, makes
// the single-configuration record, with host calibration and a check of
// every run's event count and digest.
package main

import (
	"encoding/json"
	"errors"
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
	seed := fs.Int64("seed", 1, "seed of every sweep point")
	out := fs.String("o", "", "write JSON here instead of stdout")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the sweep here")
	memprofile := fs.String("memprofile", "", "write an in-use heap profile here at the end of each point (the last point's stays)")
	nsweep := fs.Bool("nsweep", false, "run the N-scaling sweep over -ns (required: it is the only mode)")
	nsFlag := fs.String("ns", defaultNs, "comma-separated node counts for -nsweep")
	baseline := fs.String("baseline", "", "name of the checked-in BENCH_*.json to compare this sweep against (recorded in the output)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*nsweep {
		return errors.New("-nsweep is the only mode; bash bench/run.sh makes the single-configuration record")
	}
	ns, err := parseInts(*nsFlag)
	if err != nil {
		return fmt.Errorf("-ns: %w", err)
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

	sweep, err := measureSweep(ns, *seed, *memprofile, os.Stderr)
	if err != nil {
		return err
	}
	sweep.Baseline = *baseline
	return emit(sweep, *out, stdout)
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
