package campaign

import (
	"bytes"
	"context"
	"errors"
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

// hookScenario makes fault run before every scenario the engine builds
// for the rest of the test: a non-nil error fails the job, and a panic
// inside fault crashes it.
func hookScenario(t *testing.T, fault func(p liteworp.Params) error) {
	t.Helper()
	newScenario = func(p liteworp.Params) (*liteworp.Scenario, error) {
		if err := fault(p); err != nil {
			return nil, err
		}
		return liteworp.NewScenario(p)
	}
	t.Cleanup(func() { newScenario = nil })
}

// runOf maps a testJobs scenario back to its job index.
func runOf(p liteworp.Params) int { return int(p.Seed - 700) }

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

// TestPanicBecomesJobError: a panic at job k fails the campaign instead
// of killing the process, and the error names k's index, key and seed
// and carries the recovered stack. Exactly the jobs before k were
// collected.
func TestPanicBecomesJobError(t *testing.T) {
	jobs := testJobs(3)
	hookScenario(t, func(p liteworp.Params) error {
		if runOf(p) == 1 {
			panic("injected")
		}
		return nil
	})
	var collected []int
	err := Run(jobs, Options{Workers: 2}, func(i int, _ Job, _ *liteworp.Results) error {
		collected = append(collected, i)
		return nil
	})
	if err == nil {
		t.Fatal("a panicking job did not fail the campaign")
	}
	msg := err.Error()
	for _, want := range []string{"campaign job 1 (test/run=1) seed 701", "panic: injected", "campaign.execute"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not contain %q:\n%s", want, msg)
		}
	}
	if errors.Is(err, ErrInterrupted) {
		t.Error("a failed campaign reported itself interrupted")
	}
	if !reflect.DeepEqual(collected, []int{0}) {
		t.Fatalf("collected %v, want exactly the prefix [0]", collected)
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

// TestInterruptDrainsAndResumes is the SIGTERM-equivalent story (the
// experiments command cancels this same Options.Context from its signal
// handler): cancellation mid-campaign returns ErrInterrupted with a
// checkpoint from which a resumed campaign produces deep-equal
// aggregates vs. an uninterrupted run. Runs under -race in CI, covering
// the drain path.
func TestInterruptDrainsAndResumes(t *testing.T) {
	jobs := testJobs(6)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	base := runAggregates(t, jobs, Options{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	completions, collected := 0, 0
	err := Run(jobs, Options{
		Workers: 2, Checkpoint: path, Context: ctx,
		OnProgress: func(done, total int, fromCheckpoint bool) {
			if !fromCheckpoint {
				completions++
				if completions == 2 {
					cancel() // the signal handler's move
				}
			}
		},
	}, func(int, Job, *liteworp.Results) error { collected++; return nil })
	switch {
	case err == nil:
		// The race where every job finished before the cancel landed is
		// legal (drain semantics); the resume check below still holds.
		t.Log("campaign completed before the interrupt landed")
		if collected != len(jobs) {
			t.Errorf("completed campaign collected %d of %d jobs", collected, len(jobs))
		}
	case !errors.Is(err, ErrInterrupted):
		t.Fatalf("err = %v, want ErrInterrupted", err)
	case collected >= len(jobs):
		t.Errorf("interrupted campaign collected all %d jobs", collected)
	}
	if collected > completions {
		t.Errorf("collected %d jobs but only %d completed", collected, completions)
	}

	fresh := 0
	resumed := runAggregates(t, jobs, Options{Workers: 3, Checkpoint: path,
		OnProgress: func(_, _ int, fromCheckpoint bool) {
			if !fromCheckpoint {
				fresh++
			}
		}})
	if !reflect.DeepEqual(base, resumed) {
		t.Fatalf("resumed aggregates diverge from the uninterrupted run:\nbase:    %+v\nresumed: %+v", base, resumed)
	}
	if fresh+completions != len(jobs) {
		t.Errorf("fresh(%d) + pre-interrupt completions(%d) != %d jobs: the checkpoint lost or repeated work",
			fresh, completions, len(jobs))
	}
}

// TestInterruptBeforeStart: a context already cancelled when Run is
// called dispatches nothing and reports an interrupted, resumable state.
func TestInterruptBeforeStart(t *testing.T) {
	jobs := testJobs(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran, progress := 0, 0
	err := Run(jobs, Options{Workers: 2, Context: ctx,
		OnProgress: func(int, int, bool) { progress++ }},
		func(int, Job, *liteworp.Results) error { ran++; return nil })
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if ran != 0 || progress != 0 {
		t.Errorf("pre-cancelled campaign still collected %d jobs and reported %d completions", ran, progress)
	}
}

// TestInterruptAfterLastCollect: a cancel that lands inside the final
// collect leaves nothing uncollected, so the campaign is complete, not
// interrupted — the command must keep the finished figure.
func TestInterruptAfterLastCollect(t *testing.T) {
	jobs := testJobs(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	collected, completions := 0, 0
	err := Run(jobs, Options{Workers: 2, Context: ctx,
		OnProgress: func(int, int, bool) { completions++ }},
		func(i int, _ Job, _ *liteworp.Results) error {
			collected++
			if i == len(jobs)-1 {
				cancel()
			}
			return nil
		})
	if err != nil {
		t.Fatalf("err = %v, want nil: every job was collected", err)
	}
	if collected != len(jobs) || completions != len(jobs) {
		t.Errorf("collected %d and completed %d jobs, want %d of each", collected, completions, len(jobs))
	}
}
