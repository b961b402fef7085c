package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"liteworp"
)

const (
	// minReps keeps quartiles meaningful when -seconds is shorter than
	// three reps.
	minReps = 3
	// setupRounds is how many times each workload's scenarios are built
	// from scratch (and discarded) to time set-up; set-up takes
	// milliseconds, so only a median of many rounds is steady.
	setupRounds = 21
	// tracedMemProfileRate samples about one allocation per 4 KiB in the
	// traced rep only; the default 512 KiB sees too few of a scenario's
	// small per-node records.
	tracedMemProfileRate = 4096
)

type options struct {
	seed    int64
	seconds int
	trace   bool
	smoke   bool
}

// workloadRun accumulates everything measured for one workload.
type workloadRun struct {
	w     workload
	specs []scenarioSpec

	setups []float64             // setup_s of each set-up round
	reps   []map[string]float64  // timings of each complete timed rep
	counts tally                 // deterministic counters of the first complete rep
	traced *tracedRep            // nil unless -trace 1 and the traced rep completed
	checks map[int]scenarioCheck // scenario index -> first outcome

	attempted, failed int
	errs              []string
}

// scenarioCheck is the outcome every run of one scenario must reproduce:
// the kernel's event count and the SHA-256 of its JSON-encoded Results.
type scenarioCheck struct {
	Seed   int64  `json:"seed"`
	Events uint64 `json:"events"`
	Digest string `json:"digest"`
}

// observe records the first outcome of scenario i and reports a later one
// that differs from it.
func (r *workloadRun) observe(i int, c scenarioCheck) error {
	first, ok := r.checks[i]
	if !ok {
		r.checks[i] = c
		return nil
	}
	if first != c {
		return fmt.Errorf("scenario seed %d is not reproducible: %d events, digest %.12s; first run had %d events, digest %.12s",
			c.Seed, c.Events, c.Digest, first.Events, first.Digest)
	}
	return nil
}

func (r *workloadRun) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err.Error())
}

// measure runs the whole benchmark: one untimed warm-up scenario, the
// set-up rounds, timed reps interleaved round-robin across the workloads
// until the time budget is spent, and then, when tracing, one traced rep
// per workload. A calibration point (see hostClock) precedes and follows
// every timed part, and the function returns them with the runs. Progress
// goes to log.
func measure(ws []workload, o options, log io.Writer) ([]*workloadRun, []float64) {
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		runs[i] = &workloadRun{w: w, specs: w.specs(o.seed, o.smoke), checks: make(map[int]scenarioCheck)}
	}

	// The warm-up pages in code and grows the heap before anything is
	// timed; its outcome still has to match the timed runs'.
	runs[0].runChecked(0, false)
	host := newHostClock()
	for _, r := range runs {
		r.measureSetup(host)
	}

	// Interleaving the reps spreads slow drift of a shared host over every
	// workload instead of charging it to whichever ran last. A round starts
	// only if it is expected to end within the budget.
	budget := time.Duration(o.seconds) * time.Second * time.Duration(len(runs))
	start := time.Now()
	var round time.Duration
	for rep := 0; rep < minReps || time.Since(start)+round <= budget; rep++ {
		t := time.Now()
		for _, r := range runs {
			r.timedRep(rep, host, log)
		}
		round = time.Since(t)
	}

	if o.trace {
		for _, r := range runs {
			r.traceRep(host, log)
		}
	}
	return runs, host.cals
}

// measureSetup times setupRounds builds of the workload's scenarios.
func (r *workloadRun) measureSetup(host *hostClock) {
	defer func() {
		scale := host.scale()
		for i := range r.setups {
			r.setups[i] *= scale
		}
	}()
	for round := 0; round < setupRounds; round++ {
		var total time.Duration
		for _, spec := range r.specs {
			runtime.GC()
			var sc *liteworp.Scenario
			t := time.Now()
			err := protect(func() (err error) {
				sc, err = setupScenario(spec)
				return err
			})
			total += time.Since(t)
			runtime.KeepAlive(sc)
			if err != nil {
				r.attempted++
				r.fail(err)
				return
			}
		}
		r.setups = append(r.setups, total.Seconds())
	}
}

// timedRep simulates every scenario of the workload once and keeps the
// rep's timings if all of them succeeded and reproduced their outcome.
func (r *workloadRun) timedRep(rep int, host *hostClock, log io.Writer) {
	var sum repSum
	for i := range r.specs {
		sr, ok := r.runChecked(i, false)
		if !ok {
			host.mark()
			return
		}
		sum.add(sr)
	}
	s := sum.timings(host.scale())
	r.reps = append(r.reps, s)
	if r.counts == nil {
		r.counts = sum.counts
	}
	fmt.Fprintf(log, "%-14s rep %2d: run %.3fs (wall %.3fs) retained %.0f B/node\n",
		r.w.name, rep, s["run_s"], s["host.raw_run_s"], s["retained_bytes_per_node"])
}

// tracedRep is one rep under the CPU profiler and the fine-grained heap
// profiler, charged to layers.
type tracedRep struct {
	cpu, heap charge
	runS      float64
	nodes     int
}

func (r *workloadRun) traceRep(host *hostClock, log io.Writer) {
	t := &tracedRep{cpu: newCharge(), heap: newCharge()}
	for i := range r.specs {
		sr, ok := r.runChecked(i, true)
		if !ok {
			host.mark()
			return
		}
		t.cpu.add(sr.cpu)
		t.heap.add(sr.heap)
		t.runS += (sr.discovery + sr.operational).Seconds()
		t.nodes += sr.nodes
	}
	t.runS *= host.scale()
	r.traced = t
	fmt.Fprintf(log, "%-14s traced: run %.3fs, %d CPU samples\n", r.w.name, t.runS, t.cpu.total/int64(10*time.Millisecond))
}

// runChecked runs scenario i and applies the correctness gate.
func (r *workloadRun) runChecked(i int, traced bool) (scenarioRun, bool) {
	r.attempted++
	spec := r.specs[i]
	var sr scenarioRun
	err := protect(func() (err error) {
		sr, err = runScenario(spec, traced)
		return err
	})
	if err == nil {
		err = r.observe(i, scenarioCheck{Seed: spec.params.Seed, Events: sr.events, Digest: sr.digest})
	}
	if err != nil {
		r.fail(fmt.Errorf("%s seed %d: %w", r.w.name, spec.params.Seed, err))
		return sr, false
	}
	return sr, true
}

// scenarioRun is what simulating one scenario yields.
type scenarioRun struct {
	nodes                   int
	discovery, operational  time.Duration
	discoveryEvents, events uint64
	digest                  string
	// retained is the post-GC live heap held after the run with the
	// scenario still reachable, minus the post-GC live heap before it was
	// built.
	retained float64
	rt       runtimeDelta
	counts   tally
	cpu      charge // traced runs only
	heap     charge // traced runs only
}

// setupScenario builds a scenario and schedules its fault plan: the
// set-up that setup_s times.
func setupScenario(spec scenarioSpec) (*liteworp.Scenario, error) {
	sc, err := liteworp.NewScenario(spec.params)
	if err != nil || spec.faults == nil {
		return sc, err
	}
	plan, err := spec.faults(sc.NodeIDs())
	if err != nil {
		return nil, fmt.Errorf("fault plan: %w", err)
	}
	return sc, sc.InjectFaults(plan)
}

// runScenario sets up and simulates one scenario: discovery as
// RunFor(OperationalStart()), then the operational phase as
// RunFor(Duration), which together process exactly the events of Run().
func runScenario(spec scenarioSpec, traced bool) (r scenarioRun, err error) {
	var cpuProf bytes.Buffer
	stopCPU := func() {}
	if traced {
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = tracedMemProfileRate
	}
	runtime.GC()
	before := heapLive()
	if traced {
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return r, fmt.Errorf("cpu profile: %w", err)
		}
		running := true
		stopCPU = func() {
			if running {
				running = false
				pprof.StopCPUProfile()
			}
		}
		defer stopCPU()
	}

	sc, err := setupScenario(spec)
	if err != nil {
		return r, err
	}

	rt0 := readRuntime()
	t1 := time.Now()
	if err := sc.RunFor(sc.OperationalStart()); err != nil {
		return r, fmt.Errorf("discovery phase: %w", err)
	}
	t2 := time.Now()
	r.discoveryEvents = sc.Kernel().Processed()
	if err := sc.RunFor(spec.params.Duration); err != nil {
		return r, fmt.Errorf("operational phase: %w", err)
	}
	t3 := time.Now()
	r.rt = readRuntime().sub(rt0)
	stopCPU()
	r.discovery, r.operational = t2.Sub(t1), t3.Sub(t2)
	r.events = sc.Kernel().Processed()

	res := sc.Results()
	js, err := json.Marshal(res)
	if err != nil {
		return r, fmt.Errorf("encode results: %w", err)
	}
	sum := sha256.Sum256(js)
	r.digest = hex.EncodeToString(sum[:])
	if err := checkResults(spec, res); err != nil {
		return r, err
	}

	runtime.GC()
	r.retained = float64(heapLive()) - float64(before)
	if traced {
		var heapProf bytes.Buffer
		if err := pprof.Lookup("heap").WriteTo(&heapProf, 0); err != nil {
			return r, fmt.Errorf("heap profile: %w", err)
		}
		if r.heap, err = chargeBuffer(heapProf.Bytes(), "inuse_space"); err != nil {
			return r, err
		}
		if r.cpu, err = chargeBuffer(cpuProf.Bytes(), "cpu"); err != nil {
			return r, err
		}
	}
	r.nodes = len(sc.NodeIDs())
	r.counts = countersOf(sc, res)
	runtime.KeepAlive(sc)
	return r, nil
}

func chargeBuffer(data []byte, sampleType string) (charge, error) {
	p, err := parseProfile(data)
	if err != nil {
		return charge{}, err
	}
	return chargeProfile(p, sampleType)
}

// protect turns a panic in fn into an error, so a scenario that crashes
// the simulator counts as failed instead of ending the benchmark.
func protect(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// checkResults applies invariants that hold for every seed of every
// workload; reproducibility across reps is checked separately.
func checkResults(spec scenarioSpec, res *liteworp.Results) error {
	p := spec.params
	switch {
	case res.Now != res.OperationalStart+p.Duration:
		return fmt.Errorf("results at %v, want the end of the horizon %v", res.Now, res.OperationalStart+p.Duration)
	case res.DataOriginated == 0:
		return fmt.Errorf("no data originated")
	case res.DataDelivered > res.DataOriginated:
		return fmt.Errorf("%d data packets delivered of %d originated", res.DataDelivered, res.DataOriginated)
	case !p.Liteworp && (res.Accusations > 0 || res.FalselyIsolatedNodes > 0):
		return fmt.Errorf("unprotected run made %d accusations", res.Accusations)
	case spec.faults != nil && res.FaultEvents == 0:
		return fmt.Errorf("fault plan applied no events")
	}
	return nil
}

// repSum adds up the scenarios of one rep.
type repSum struct {
	nodes                   int
	discovery, operational  time.Duration
	discoveryEvents, events uint64
	retained                float64
	rt                      runtimeDelta
	counts                  tally
}

func (s *repSum) add(r scenarioRun) {
	s.nodes += r.nodes
	s.discovery += r.discovery
	s.operational += r.operational
	s.discoveryEvents += r.discoveryEvents
	s.events += r.events
	s.retained += r.retained
	for i := range s.rt {
		s.rt[i] += r.rt[i]
	}
	if s.counts == nil {
		s.counts = tally{}
	}
	s.counts.add(r.counts)
}

// timings are the rep's time and runtime figures, which vary from rep to
// rep; the workload reports their medians. scale rescales wall times to
// the reference host (see hostClock).
func (s *repSum) timings(scale float64) map[string]float64 {
	events := float64(s.events)
	cpu := s.rt[rtCPUTotal] - s.rt[rtCPUIdle]
	run := (s.discovery + s.operational).Seconds()
	return map[string]float64{
		"run_s":                         run * scale,
		"retained_bytes_per_node":       s.retained / float64(s.nodes),
		"phase.discovery_s":             s.discovery.Seconds() * scale,
		"phase.operational_s":           s.operational.Seconds() * scale,
		"host.raw_run_s":                run,
		"runtime.cpu_ns_per_event":      div(cpu*1e9, events),
		"runtime.gc_cpu_share":          div(s.rt[rtCPUGC], cpu),
		"runtime.gc_cycles":             s.rt[rtGCCycles],
		"runtime.alloc_bytes_per_event": div(s.rt[rtAllocBytes], events),
		"runtime.allocs_per_event":      div(s.rt[rtAllocObjects], events),
		// Deterministic, but measured here because the split is the
		// benchmark's, not a simulator counter.
		"phase.discovery_events":   float64(s.discoveryEvents),
		"phase.operational_events": float64(s.events - s.discoveryEvents),
	}
}

// runtimeDelta holds runtime/metrics readings, or their difference.
type runtimeDelta [len(runtimeMetricNames)]float64

// Indexes into runtimeDelta, in runtimeMetricNames order.
const (
	rtCPUTotal = iota
	rtCPUIdle
	rtCPUGC
	rtGCCycles
	rtAllocBytes
	rtAllocObjects
	rtHeapLive
)

// runtimeMetricNames are read before and after each run. The /cpu/classes
// figures are the runtime's own estimates, refreshed at each GC cycle.
var runtimeMetricNames = [...]string{
	rtCPUTotal:     "/cpu/classes/total:cpu-seconds",
	rtCPUIdle:      "/cpu/classes/idle:cpu-seconds",
	rtCPUGC:        "/cpu/classes/gc/total:cpu-seconds",
	rtGCCycles:     "/gc/cycles/total:gc-cycles",
	rtAllocBytes:   "/gc/heap/allocs:bytes",
	rtAllocObjects: "/gc/heap/allocs:objects",
	rtHeapLive:     "/gc/heap/live:bytes",
}

func readRuntime() runtimeDelta {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var d runtimeDelta
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			d[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			d[i] = s.Value.Float64()
		}
	}
	return d
}

func (d runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	for i := range d {
		d[i] -= o[i]
	}
	return d
}

// heapLive is the live heap as of the last GC cycle; call it right after
// runtime.GC.
func heapLive() uint64 { return uint64(readRuntime()[rtHeapLive]) }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
