package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"liteworp"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func lastLine(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout)
	}
	return res
}

func names(ms []specMetric) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func sameMetrics[V any](t *testing.T, what string, got map[string]V, unit func(V) string, want map[string]string) {
	t.Helper()
	for name, v := range got {
		if u, ok := want[name]; !ok {
			t.Errorf("%s: %s is emitted but not in BENCHMARK.json", what, name)
		} else if unit(v) != u {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, unit(v), u)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but not emitted", what, name)
		}
	}
}

// TestSmoke runs every workload at smoke scale with tracing and checks
// that what the benchmark emits is exactly what BENCHMARK.json declares,
// so the two cannot drift apart.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	out := filepath.Join(t.TempDir(), "smoke.json")
	var stdout, stderr bytes.Buffer
	start := time.Now()
	if code := run([]string{"-scale", "smoke", "-seconds", "0", "-trace", "1", "-seed", "3", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	t.Logf("all workloads at smoke scale in %v", time.Since(start))
	if res := lastLine(t, stdout.String()); !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("result %+v", res)
	}

	var rec Record
	if err := readJSON(out, &rec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range rec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, want)
	}

	for _, w := range rec.Workloads {
		sameMetrics(t, w.Name, w.EndToEnd, func(s Stat) string { return s.Unit }, names(spec.EndToEnd))
		sameMetrics(t, w.Name, w.PerLayer, func(v Value) string { return v.Unit }, names(spec.PerLayer))
		for _, s := range w.EndToEnd {
			if s.Median <= 0 {
				t.Errorf("%s: an end-to-end median is %v", w.Name, s.Median)
			}
		}
		var share float64
		for _, l := range append(append([]string(nil), layers...), unattributed) {
			share += w.PerLayer[l+".cpu_share"].Value
		}
		if share != 0 && math.Abs(share-1) > 1e-3 {
			t.Errorf("%s: CPU shares sum to %v", w.Name, share)
		}
	}
}

// The driver's form: one workload, double-dash flags, and the end-to-end
// metrics alone on the last line.
func TestSingleWorkloadLine(t *testing.T) {
	spec := loadSpec(t)
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "baseline-n100", "--seed", "5", "--seconds", "0", "--trace", "0", "--scale", "smoke"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	res := lastLine(t, stdout.String())
	sameMetrics(t, "baseline-n100", res.Metrics, func(v Value) string { return v.Unit }, names(spec.EndToEnd))
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-scale", "huge"},
		{"-compare", "only-one.json"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed a result: %s", args, stdout.String())
		}
	}
}

// A scenario whose rerun does not reproduce its first outcome fails the
// run: it is counted, the rep is dropped, and the result is not correct.
func TestMismatchFailsTheRun(t *testing.T) {
	p := liteworp.DefaultParams()
	p.NumNodes, p.Duration = 40, 10*time.Second
	r := &workloadRun{
		w:      workload{name: "tiny"},
		specs:  []scenarioSpec{{params: p}},
		checks: map[int]scenarioCheck{0: {Seed: p.Seed, Events: 1, Digest: "not-this-run"}},
	}
	var log bytes.Buffer
	r.timedRep(0, newHostClock(), &log)
	if r.failed != 1 || r.attempted != 1 || len(r.reps) != 0 {
		t.Fatalf("failed %d attempted %d reps %d, want 1 1 0", r.failed, r.attempted, len(r.reps))
	}
	if !strings.Contains(r.errs[0], "not reproducible") {
		t.Errorf("error %q", r.errs[0])
	}
	res := summarize(newRecord(options{seed: 1}, []*workloadRun{r}, nil), false)
	if res.Correct || res.Failed != 1 {
		t.Errorf("result %+v, want incorrect with one failure", res)
	}

	// The same scenario against its true outcome passes.
	r.checks = map[int]scenarioCheck{}
	r.timedRep(1, newHostClock(), &log)
	r.timedRep(2, newHostClock(), &log)
	if r.failed != 1 || len(r.reps) != 2 {
		t.Errorf("reruns: failed %d reps %d, want 1 2", r.failed, len(r.reps))
	}
}
