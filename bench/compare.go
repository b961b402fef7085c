package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison and the tests
// read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts of one end-to-end metric on one workload.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges cur against base. bound is the share of base's median by
// which the metric may get worse. When either record's own spread (its
// interquartile range as a share of its median) is wider than the bound,
// the medians cannot be told apart at that resolution and the verdict is
// unresolved, unless every rep of cur beats every rep of base.
func verdict(base, cur Stat, better string, bound float64) string {
	sign := 1.0 // +1: a larger value is worse; sign*x puts the worst rep at the maximum
	if better == "higher" {
		sign = -1
	}
	if math.Max(spread(base), spread(cur)) > bound {
		if len(base.Values) > 0 && len(cur.Values) > 0 &&
			slices.Max(scaled(cur.Values, sign)) < slices.Min(scaled(base.Values, sign)) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch worse := sign * relChange(base.Median, cur.Median); {
	case worse > bound:
		return verdictWorse
	case worse < -bound:
		return verdictBetter
	}
	return verdictSame
}

// scaled returns x with every value multiplied by f.
func scaled(x []float64, f float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = f * v
	}
	return out
}

// spread is a Stat's interquartile range as a share of its median.
func spread(s Stat) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// relChange is (cur-base)/|base|.
func relChange(base, cur float64) float64 {
	switch {
	case cur == base:
		return 0
	case base == 0:
		return math.Copysign(math.Inf(1), cur)
	}
	return (cur - base) / math.Abs(base)
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their spreads, the bound from the spec and a verdict, then the per-layer
// metrics that changed. It returns 1 if a scenario's events or digest
// diverged, a workload is missing, or any verdict is worse.
func compareFiles(specPath, basePath, curPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var base, cur Record
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {basePath, &base}, {curPath, &cur}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if base.Seed != cur.Seed || base.Scale != cur.Scale {
		fmt.Fprintf(stderr, "bench: records measured different inputs (seed %d scale %s vs seed %d scale %s)\n",
			base.Seed, base.Scale, cur.Seed, cur.Scale)
		return 2
	}

	bad := false
	find := func(r *Record, name string) (WorkloadRecord, bool) {
		for _, w := range r.Workloads {
			if w.Name == name {
				return w, true
			}
		}
		return WorkloadRecord{}, false
	}
	for _, w := range base.Workloads {
		if _, ok := find(&cur, w.Name); !ok {
			fmt.Fprintf(stdout, "%s: missing from %s\n", w.Name, curPath)
			bad = true
		}
	}

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tbase IQR\tnew median\tnew IQR\tchange\tbound\tverdict")
	var layerLines []string
	for _, w := range cur.Workloads {
		b, ok := find(&base, w.Name)
		if !ok {
			fmt.Fprintf(tw, "%s\t(missing from %s)\n", w.Name, basePath)
			bad = true
			continue
		}
		if msg := diverged(b.Scenarios, w.Scenarios); msg != "" {
			fmt.Fprintf(tw, "%s\tDIVERGED: %s\n", w.Name, msg)
			bad = true
		}
		for _, m := range spec.EndToEnd {
			bs, cs := b.EndToEnd[m.Name], w.EndToEnd[m.Name]
			v := verdict(bs, cs, m.Better, m.Bound)
			if v == verdictWorse {
				bad = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.1f%%\t%.6g %s\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, bs.Median, m.Unit, 100*spread(bs), cs.Median, m.Unit, 100*spread(cs),
				100*relChange(bs.Median, cs.Median), 100*m.Bound, v)
		}
		layerLines = append(layerLines, layerDeltas(w.Name, b.PerLayer, w.PerLayer)...)
	}
	tw.Flush()

	fmt.Fprintln(stdout, "\nper-layer metrics that changed:")
	if len(layerLines) == 0 {
		fmt.Fprintln(stdout, "  none")
	}
	for _, l := range layerLines {
		fmt.Fprintln(stdout, l)
	}
	if bad {
		return 1
	}
	return 0
}

// diverged describes the first scenario whose seed, event count or
// digest differs between two records, or returns "".
func diverged(base, cur []scenarioCheck) string {
	if len(base) != len(cur) {
		return fmt.Sprintf("%d scenarios vs %d", len(base), len(cur))
	}
	for i := range base {
		if base[i] != cur[i] {
			return fmt.Sprintf("seed %d: %d events digest %.12s vs seed %d: %d events digest %.12s",
				base[i].Seed, base[i].Events, base[i].Digest, cur[i].Seed, cur[i].Events, cur[i].Digest)
		}
	}
	return ""
}

// layerDeltas lists the per-layer metrics whose values differ.
func layerDeltas(workload string, base, cur map[string]Value) []string {
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		b, ok := base[name]
		c := cur[name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("  %s %s: only in the new record (%.6g %s)", workload, name, c.Value, c.Unit))
		case b.Value != c.Value:
			out = append(out, fmt.Sprintf("  %s %s: %.6g -> %.6g %s (%+.1f%%)",
				workload, name, b.Value, c.Value, c.Unit, 100*relChange(b.Value, c.Value)))
		}
	}
	return out
}
