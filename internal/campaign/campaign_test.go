package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"liteworp"
	"liteworp/internal/metrics"
)

// testJobs lays out n small independent runs with pinned seeds.
func testJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		p := liteworp.DefaultParams()
		p.Seed = int64(700 + i)
		p.NumNodes = 30
		p.Duration = 120 * time.Second
		p.NumMalicious = 2
		p.Attack = liteworp.AttackOutOfBand
		jobs[i] = Job{Key: fmt.Sprintf("test/run=%d", i), Params: p}
	}
	return jobs
}

// aggregates folds a campaign into every aggregator shape the experiments
// layer uses, plus the raw collect order, so tests can compare complete
// campaign outcomes across worker counts and resumes.
type aggregates struct {
	Order   []string
	Det     metrics.Summary
	Dropped metrics.Summary
	Curve   []float64
}

func runAggregates(t *testing.T, jobs []Job, opt Options) aggregates {
	t.Helper()
	var det, fd metrics.MeanVar
	curve := NewCurve(30*time.Second, 120*time.Second)
	var order []string
	err := Run(jobs, opt, func(i int, job Job, r *liteworp.Results) error {
		order = append(order, fmt.Sprintf("%d:%s", i, job.Key))
		det.Add(r.DetectionRatio)
		fd.Add(r.FractionDropped)
		curve.Add(func(off time.Duration) float64 { return r.DroppedAt(r.OperationalStart + off) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return aggregates{Order: order, Det: det.Summary(), Dropped: fd.Summary(), Curve: curve.Means()}
}

// TestWorkerCountInvariance is the determinism contract of the engine: a
// campaign over the same seed set must produce deeply equal aggregates —
// and an identical collect order — at workers=1 and workers=8. Under
// `go test -race` this also exercises the pool for data races.
func TestWorkerCountInvariance(t *testing.T) {
	jobs := testJobs(6)
	seq := runAggregates(t, jobs, Options{Workers: 1})
	par := runAggregates(t, jobs, Options{Workers: 8})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("aggregates depend on worker count:\nworkers=1: %+v\nworkers=8: %+v", seq, par)
	}
	if seq.Det.N != len(jobs) {
		t.Fatalf("aggregated %d runs, want %d", seq.Det.N, len(jobs))
	}
	for i, o := range seq.Order {
		if want := fmt.Sprintf("%d:test/run=%d", i, i); o != want {
			t.Fatalf("collect order[%d] = %q, want %q (seed order, never completion order)", i, o, want)
		}
	}
}

// TestDefaultWorkersMatchSequential covers Workers<=0 (GOMAXPROCS).
func TestDefaultWorkersMatchSequential(t *testing.T) {
	jobs := testJobs(3)
	seq := runAggregates(t, jobs, Options{Workers: 1})
	auto := runAggregates(t, jobs, Options{})
	if !reflect.DeepEqual(seq, auto) {
		t.Fatalf("default worker count changed the aggregates:\nworkers=1: %+v\nauto: %+v", seq, auto)
	}
}

// TestErrorReportedInJobOrder pins the failure semantics: the error of
// the lowest-indexed failing job is returned, and collect has seen
// exactly the jobs preceding it.
func TestErrorReportedInJobOrder(t *testing.T) {
	jobs := testJobs(5)
	jobs[2].Params.NumNodes = 1 // rejected by parameter validation
	var collected []int
	err := Run(jobs, Options{Workers: 4}, func(i int, _ Job, _ *liteworp.Results) error {
		collected = append(collected, i)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "campaign job 2 (test/run=2)") {
		t.Fatalf("err = %v, want the job-2 failure", err)
	}
	if !reflect.DeepEqual(collected, []int{0, 1}) {
		t.Fatalf("collected %v, want exactly the prefix [0 1]", collected)
	}
}

// TestCollectErrorStopsMerge covers the collect side refusing a result.
func TestCollectErrorStopsMerge(t *testing.T) {
	jobs := testJobs(3)
	boom := fmt.Errorf("aggregation refused")
	var collected []int
	err := Run(jobs, Options{Workers: 2}, func(i int, _ Job, _ *liteworp.Results) error {
		if i == 1 {
			return boom
		}
		collected = append(collected, i)
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want the collect error", err)
	}
	if !reflect.DeepEqual(collected, []int{0}) {
		t.Fatalf("collected %v, want [0]", collected)
	}
}

// TestCheckpointResume demonstrates the interruption story: a checkpoint
// truncated the way a killed process would leave it (complete prefix plus
// a torn trailing line) resumes with only the missing seeds re-run, and
// the final aggregates are deeply equal to an uninterrupted campaign's.
func TestCheckpointResume(t *testing.T) {
	jobs := testJobs(5)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	base := runAggregates(t, jobs, Options{Workers: 4})

	first := runAggregates(t, jobs, Options{Workers: 4, Checkpoint: path})
	if !reflect.DeepEqual(base, first) {
		t.Fatal("writing a checkpoint changed the aggregates")
	}

	// Interrupt: header, two completed entries, half of a third.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("checkpoint has %d lines, want header + %d entries", len(lines), len(jobs))
	}
	var trunc []byte
	trunc = append(trunc, lines[0]...)
	trunc = append(trunc, lines[1]...)
	trunc = append(trunc, lines[2]...)
	trunc = append(trunc, lines[3][:len(lines[3])/2]...)
	if err := os.WriteFile(path, trunc, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, restored := 0, 0
	resumed := runAggregates(t, jobs, Options{Workers: 2, Checkpoint: path,
		OnProgress: func(done, total int, fromCheckpoint bool) {
			if total != len(jobs) {
				t.Errorf("progress total = %d, want %d", total, len(jobs))
			}
			if fromCheckpoint {
				restored = done
			} else {
				fresh++
			}
		}})
	if restored != 2 {
		t.Errorf("restored %d runs from the torn checkpoint, want 2", restored)
	}
	if fresh != 3 {
		t.Errorf("re-ran %d jobs, want exactly the 3 missing ones", fresh)
	}
	if !reflect.DeepEqual(base, resumed) {
		t.Fatalf("resumed aggregates diverge from the uninterrupted run:\nbase:    %+v\nresumed: %+v", base, resumed)
	}

	// A complete checkpoint resumes with zero fresh runs.
	fresh = 0
	again := runAggregates(t, jobs, Options{Workers: 3, Checkpoint: path,
		OnProgress: func(_, _ int, fromCheckpoint bool) {
			if !fromCheckpoint {
				fresh++
			}
		}})
	if fresh != 0 {
		t.Errorf("complete checkpoint still re-ran %d jobs", fresh)
	}
	if !reflect.DeepEqual(base, again) {
		t.Fatal("complete-checkpoint replay diverged")
	}
}

// TestCheckpointInvalidatedByDifferentJobs: a checkpoint written for a
// different job list (here: one edited seed) must be discarded wholesale,
// never partially resumed.
func TestCheckpointInvalidatedByDifferentJobs(t *testing.T) {
	jobs := testJobs(3)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	runAggregates(t, jobs, Options{Workers: 2, Checkpoint: path})

	changed := testJobs(3)
	changed[1].Params.Seed = 9999
	fresh := 0
	runAggregates(t, changed, Options{Workers: 2, Checkpoint: path,
		OnProgress: func(_, _ int, fromCheckpoint bool) {
			if fromCheckpoint {
				t.Error("restored results from a checkpoint of a different campaign")
			} else {
				fresh++
			}
		}})
	if fresh != len(changed) {
		t.Errorf("fresh runs = %d, want %d (full invalidation)", fresh, len(changed))
	}
}

func TestEmptyCampaign(t *testing.T) {
	if err := Run(nil, Options{}, func(int, Job, *liteworp.Results) error {
		t.Error("collect called for an empty campaign")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a, b := testJobs(3), testJobs(3)
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("identical job lists fingerprint differently")
	}
	b[2].Params.Gamma++
	if fingerprint(a) == fingerprint(b) {
		t.Fatal("parameter change not reflected in the fingerprint")
	}
	c := testJobs(3)
	c[0].Key = "renamed"
	if fingerprint(a) == fingerprint(c) {
		t.Fatal("key change not reflected in the fingerprint")
	}
}
