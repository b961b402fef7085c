package main

import (
	"runtime"
	"sort"

	"liteworp"
)

// tally holds a rep's deterministic counters, summed over its scenarios
// (watch.peak_entries is a maximum). Per-node counters are summed over
// each node's current incarnation.
type tally map[string]float64

func (t tally) add(o tally) {
	for k, v := range o {
		if k == "watch.peak_entries" {
			t[k] = max(t[k], v)
			continue
		}
		t[k] += v
	}
}

// countersOf reads one finished scenario's counters through the public
// API: its Results, kernel and medium, and each node's stack.
func countersOf(sc *liteworp.Scenario, res *liteworp.Results) tally {
	k, ms := sc.Kernel(), sc.MediumStats()
	ids := sc.NodeIDs()
	t := tally{
		"scenarios":                     1,
		"nodes":                         float64(len(ids)),
		"sim.events":                    float64(k.Processed()),
		"sim.housekeeping_events":       float64(k.ProcessedHousekeeping()),
		"medium.transmissions":          float64(ms.Transmissions),
		"medium.deliveries":             float64(ms.Deliveries),
		"medium.losses":                 float64(ms.Losses),
		"medium.bytes_on_air":           float64(ms.BytesOnAir),
		"medium.tunnel_messages":        float64(ms.TunnelMessages),
		"medium.down_suppressed":        float64(ms.DownSuppressed),
		"detector.accusations":          float64(res.Accusations),
		"detector.false_accusations":    float64(res.FalseAccusations),
		"fault.events":                  float64(res.FaultEvents),
		"scenario.detection_ratio":      res.DetectionRatio,
		"scenario.delivery_ratio":       res.DeliveryRatio,
		"scenario.false_isolated_nodes": float64(res.FalselyIsolatedNodes),
	}
	for _, id := range ids {
		n := sc.Node(id)
		rs := n.Router().Stats()
		t["routing.requests_originated"] += float64(rs.RequestsOriginated)
		t["routing.requests_forwarded"] += float64(rs.RequestsForwarded)
		t["routing.routes_established"] += float64(rs.RoutesEstablished)
		t["routing.data_forwarded"] += float64(rs.DataForwarded)
		t["routing.sends_failed"] += float64(rs.SendsFailed)
		t["neighbor.entries"] += float64(len(n.Table().AllEntries()))
		t["neighbor.table_bytes"] += float64(n.Table().MemoryBytes())
		if e := n.Engine(); e != nil {
			es := e.Stats()
			t["core.alerts_sent"] += float64(es.AlertsSent)
			t["core.alert_retries"] += float64(es.AlertRetries)
			t["core.alerts_accepted"] += float64(es.AlertsAccepted)
			t["core.alerts_rejected"] += float64(es.AlertsRejected)
			t["core.isolations"] += float64(es.Isolations)
			t["core.frames_rejected"] += float64(es.RejectedNonNeighbor + es.RejectedRevoked + es.RejectedUnknownLink)
			if b := e.Buffer(); b != nil {
				ws := b.Stats()
				t["watch.expectations"] += float64(ws.Expectations)
				t["watch.matches"] += float64(ws.Matches)
				t["watch.drops"] += float64(ws.Drops)
				t["watch.fabrications"] += float64(ws.Fabrications)
				t["watch.peak_entries"] = max(t["watch.peak_entries"], float64(ws.PeakEntries))
			}
		}
		if a := n.Attacker(); a != nil {
			as := a.Stats()
			t["attack.reqs_tunneled"] += float64(as.ReqsTunneled)
			t["attack.data_dropped"] += float64(as.DataDropped)
		}
	}
	return t
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Stat summarizes one end-to-end metric over a run's reps.
type Stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// Record is everything one invocation measured; -o writes it and -compare
// reads two of them.
type Record struct {
	Seed      int64            `json:"seed"`
	Scale     string           `json:"scale"`
	Seconds   int              `json:"seconds"`
	Host      Host             `json:"host"`
	Workloads []WorkloadRecord `json:"workloads"`
}

// Host names what the record was measured on.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// WorkloadRecord is one workload's share of a Record.
type WorkloadRecord struct {
	Name      string           `json:"name"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Errors    []string         `json:"errors,omitempty"`
	EndToEnd  map[string]Stat  `json:"end_to_end"`
	PerLayer  map[string]Value `json:"per_layer"`
	Scenarios []scenarioCheck  `json:"scenarios"`
}

// endToEnd names the end-to-end metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"retained_bytes_per_node", "B"},
}

// newRecord summarizes the runs; cals are the run's calibration points.
func newRecord(o options, runs []*workloadRun, cals []float64) *Record {
	_, cal, _ := quartiles(cals)
	rec := &Record{
		Seed:    o.seed,
		Scale:   scaleName(o.smoke),
		Seconds: o.seconds,
		Host:    Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
	}
	for _, r := range runs {
		rec.Workloads = append(rec.Workloads, r.record(o.trace, cal))
	}
	return rec
}

func scaleName(smoke bool) string {
	if smoke {
		return "smoke"
	}
	return "full"
}

func (r *workloadRun) record(trace bool, cal float64) WorkloadRecord {
	wr := WorkloadRecord{
		Name:      r.w.name,
		Attempted: r.attempted,
		Failed:    r.failed,
		Errors:    r.errs,
		EndToEnd:  make(map[string]Stat, len(endToEnd)),
		PerLayer:  make(map[string]Value),
	}
	for _, m := range endToEnd {
		values := r.setups
		if m.name != "setup_s" {
			values = column(r.reps, m.name)
		}
		q1, med, q3 := quartiles(values)
		wr.EndToEnd[m.name] = Stat{Unit: m.unit, Median: med, Q1: q1, Q3: q3, Values: values}
	}
	idx := make([]int, 0, len(r.checks))
	for i := range r.checks {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		wr.Scenarios = append(wr.Scenarios, r.checks[i])
	}
	if len(r.reps) == 0 {
		return wr
	}

	m := wr.PerLayer
	set := func(name, unit string, v float64) { m[name] = Value{v, unit} }
	for _, name := range []string{"phase.discovery_s", "phase.operational_s", "host.raw_run_s"} {
		_, med, _ := quartiles(column(r.reps, name))
		set(name, "s", med)
	}
	set("host.calibration_s", "s", cal)
	set("phase.discovery_events", "count", r.reps[0]["phase.discovery_events"])
	set("phase.operational_events", "count", r.reps[0]["phase.operational_events"])
	for _, rt := range []struct{ name, unit string }{
		{"runtime.cpu_ns_per_event", "ns"},
		{"runtime.gc_cpu_share", "share"},
		{"runtime.gc_cycles", "count"},
		{"runtime.alloc_bytes_per_event", "B"},
		{"runtime.allocs_per_event", "count"},
	} {
		_, med, _ := quartiles(column(r.reps, rt.name))
		set(rt.name, rt.unit, med)
	}

	t := r.counts
	for _, name := range []string{
		"sim.events", "sim.housekeeping_events",
		"medium.transmissions", "medium.deliveries", "medium.losses",
		"medium.tunnel_messages", "medium.down_suppressed",
		"routing.requests_originated", "routing.requests_forwarded",
		"routing.routes_established", "routing.data_forwarded", "routing.sends_failed",
		"watch.expectations", "watch.matches", "watch.drops", "watch.fabrications", "watch.peak_entries",
		"detector.accusations", "detector.false_accusations",
		"core.alerts_sent", "core.alert_retries", "core.alerts_accepted", "core.alerts_rejected",
		"core.isolations", "core.frames_rejected",
		"attack.reqs_tunneled", "attack.data_dropped",
		"fault.events", "scenario.false_isolated_nodes",
	} {
		set(name, "count", t[name])
	}
	set("sim.protocol_events", "count", t["sim.events"]-t["sim.housekeeping_events"])
	set("medium.bytes_on_air", "B", t["medium.bytes_on_air"])
	set("medium.deliveries_per_transmission", "ratio", div(t["medium.deliveries"], t["medium.transmissions"]))
	set("routing.forwards_per_request", "ratio", div(t["routing.requests_forwarded"], t["routing.requests_originated"]))
	set("routing.route_yield", "ratio", div(t["routing.routes_established"], t["routing.requests_originated"]))
	set("neighbor.entries_per_node", "count", div(t["neighbor.entries"], t["nodes"]))
	set("neighbor.table_bytes_per_node", "B", div(t["neighbor.table_bytes"], t["nodes"]))
	set("watch.match_ratio", "ratio", div(t["watch.matches"], t["watch.expectations"]))
	set("detector.precision", "ratio", div(t["detector.accusations"]-t["detector.false_accusations"], t["detector.accusations"]))
	set("scenario.detection_ratio", "ratio", div(t["scenario.detection_ratio"], t["scenarios"]))
	set("scenario.delivery_ratio", "ratio", div(t["scenario.delivery_ratio"], t["scenarios"]))

	if tr := r.traced; trace && tr != nil {
		for _, l := range append(append([]string(nil), layers...), unattributed) {
			set(l+".cpu_share", "share", div(float64(tr.cpu.byLayer[l]), float64(tr.cpu.total)))
			set(l+".retained_bytes_per_node", "B", div(float64(tr.heap.byLayer[l]), float64(tr.nodes)))
		}
		set(flatmap+".cpu_share", "share", div(float64(tr.cpu.flatmap), float64(tr.cpu.total)))
		set(flatmap+".retained_bytes_per_node", "B", div(float64(tr.heap.flatmap), float64(tr.nodes)))
		set("trace.overhead", "ratio", div(tr.runS, wr.EndToEnd["run_s"].Median))
	}
	return wr
}

func column(rows []map[string]float64, name string) []float64 {
	out := make([]float64, len(rows))
	for i, row := range rows {
		out[i] = row[name]
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of x as
// Python's statistics.quantiles(x, n=4) computes them (the exclusive
// method), so the benchmark's spreads read the same as any check made on
// its output. An empty x gives zeros.
func quartiles(x []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// summarize builds the last line: the end-to-end medians, or with trace
// the per-layer metrics. Several workloads prefix each name with the
// workload's.
func summarize(rec *Record, trace bool) result {
	res := result{Metrics: make(map[string]Value)}
	for _, w := range rec.Workloads {
		res.Attempted += w.Attempted
		res.Failed += w.Failed
		prefix := ""
		if len(rec.Workloads) > 1 {
			prefix = w.Name + "."
		}
		if trace {
			for name, v := range w.PerLayer {
				res.Metrics[prefix+name] = v
			}
			continue
		}
		for name, s := range w.EndToEnd {
			res.Metrics[prefix+name] = Value{s.Median, s.Unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}
