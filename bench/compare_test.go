package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func stat(values ...float64) Stat {
	q1, med, q3 := quartiles(values)
	return Stat{Unit: "s", Median: med, Q1: q1, Q3: q3, Values: values}
}

func TestVerdict(t *testing.T) {
	base := stat(1.00, 1.01, 0.99, 1.02, 0.98)
	for _, tc := range []struct {
		name   string
		cur    Stat
		better string
		want   string
	}{
		{"within bound", stat(1.05, 1.06, 1.04, 1.07, 1.03), "lower", verdictSame},
		{"slower beyond bound", stat(1.20, 1.21, 1.19, 1.22, 1.18), "lower", verdictWorse},
		{"faster beyond bound", stat(0.80, 0.81, 0.79, 0.82, 0.78), "lower", verdictBetter},
		{"higher is better", stat(1.20, 1.21, 1.19, 1.22, 1.18), "higher", verdictBetter},
		{"spread wider than bound", stat(0.7, 1.0, 1.3, 0.8, 1.2), "lower", verdictUnresolved},
		{"wide spread but every rep faster", stat(0.5, 0.6, 0.9, 0.55, 0.85), "lower", verdictBetter},
	} {
		if got := verdict(base, tc.cur, tc.better, 0.1); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(x, n=4) gives for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		x         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6}, // the exclusive method extrapolates
		{[]float64{4}, 4, 4, 4},
	} {
		q1, m, q3 := quartiles(tc.x)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.x, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestCompareRecords(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(spec, map[string]any{
		"workloads": []map[string]string{{"name": "w"}},
		"end_to_end": []map[string]any{
			{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
			{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		},
	}); err != nil {
		t.Fatal(err)
	}
	record := func(name string, run Stat, events uint64, layer float64) string {
		path := filepath.Join(dir, name)
		rec := Record{Seed: 1, Scale: "full", Workloads: []WorkloadRecord{{
			Name:      "w",
			EndToEnd:  map[string]Stat{"run_s": run, "setup_s": stat(0.002, 0.002, 0.002)},
			PerLayer:  map[string]Value{"watch.cpu_share": {layer, "share"}, "sim.events": {float64(events), "count"}},
			Scenarios: []scenarioCheck{{Seed: 1, Events: events, Digest: "ab"}},
		}}}
		if err := writeJSON(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := record("base.json", stat(1.00, 1.01, 0.99), 100, 0.30)

	for _, tc := range []struct {
		name     string
		cur      string
		wantCode int
		want     []string
	}{
		{"same", record("same.json", stat(1.02, 1.03, 1.01), 100, 0.25), 0,
			[]string{"run_s", "same", "watch.cpu_share: 0.3 -> 0.25"}},
		{"worse", record("worse.json", stat(1.30, 1.31, 1.29), 100, 0.30), 1,
			[]string{"worse", "none"}},
		{"diverged", record("diverged.json", stat(1.00, 1.01, 0.99), 101, 0.30), 1,
			[]string{"DIVERGED", "sim.events: 100 -> 101"}},
	} {
		var out, errOut bytes.Buffer
		code := compareFiles(spec, base, tc.cur, &out, &errOut)
		if code != tc.wantCode {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.wantCode, out.String(), errOut.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, w, out.String())
			}
		}
	}
}
