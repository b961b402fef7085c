package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"liteworp"
	"liteworp/internal/metrics"
)

// The chaos harness proves the acceptance contract of the supervised
// runtime: with injected worker panics and errors, and a mid-run
// interrupt+resume, the final aggregates are bitwise identical to a
// clean sequential run over the same surviving job subset, for
// workers=1 and workers=8. Faults go in through the newScenario hook and
// are keyed by seed, so the fault schedule itself is deterministic.

// chaosAgg folds a campaign the way the experiment figures do, but keyed
// by job key rather than index so campaigns over different job subsets
// compare directly.
type chaosAgg struct {
	Keys    []string
	Det     metrics.Summary
	Dropped metrics.Summary
	Curve   []float64
}

func foldChaos(t *testing.T, jobs []Job, opt Options) (chaosAgg, Report) {
	t.Helper()
	var det, fd metrics.MeanVar
	curve := NewCurve(30*time.Second, 120*time.Second)
	var keys []string
	report, err := RunReport(jobs, opt, func(_ int, job Job, r *liteworp.Results) error {
		keys = append(keys, job.Key)
		det.Add(r.DetectionRatio)
		fd.Add(r.FractionDropped)
		curve.Add(func(off time.Duration) float64 { return r.DroppedAt(r.OperationalStart + off) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return chaosAgg{Keys: keys, Det: det.Summary(), Dropped: fd.Summary(), Curve: curve.Means()}, report
}

// chaosMatrix is the fault schedule shared by every worker count: run=1
// and run=3 panic, run=4 returns an error. Every faulted job fails for
// good, so the survivors are runs 0, 2, 5, 6 and 7.
func chaosMatrix(t *testing.T) {
	hookScenario(t, func(p liteworp.Params) error {
		switch runOf(p) {
		case 1, 3:
			panic("chaos: injected panic")
		case 4:
			return errors.New("chaos: injected failure")
		}
		return nil
	})
}

// chaosFailed is what Report.Failed must list under chaosMatrix.
var chaosFailed = map[int]FailureKind{1: FailPanic, 3: FailPanic, 4: FailError}

func chaosSurvivors(jobs []Job) []Job {
	var out []Job
	for i, j := range jobs {
		if _, failed := chaosFailed[i]; !failed {
			out = append(out, j)
		}
	}
	return out
}

func checkChaosFailed(t *testing.T, failed []*JobError) {
	t.Helper()
	got := map[int]FailureKind{}
	for k, je := range failed {
		if k > 0 && failed[k-1].Index >= je.Index {
			t.Errorf("Report.Failed not in ascending job order: %v", failed)
		}
		got[je.Index] = je.Kind
	}
	if !reflect.DeepEqual(got, chaosFailed) {
		t.Fatalf("Report.Failed = %v, want %v", got, chaosFailed)
	}
}

// TestChaosAggregatesBitwiseIdentical is the tentpole acceptance test.
func TestChaosAggregatesBitwiseIdentical(t *testing.T) {
	jobs := testJobs(8)
	base, _ := foldChaos(t, chaosSurvivors(jobs), Options{Workers: 1})
	chaosMatrix(t)

	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, report := foldChaos(t, jobs, Options{Workers: workers, OnError: SkipFailed})
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("chaos aggregates diverge from clean run over the surviving subset:\nclean: %+v\nchaos: %+v", base, got)
			}
			checkChaosFailed(t, report.Failed)
		})
	}
}

// TestChaosInterruptResume completes the acceptance matrix: chaos plus a
// mid-run interrupt, then a resumed campaign, must still land on the
// clean-run aggregates over the surviving subset.
func TestChaosInterruptResume(t *testing.T) {
	jobs := testJobs(8)
	base, _ := foldChaos(t, chaosSurvivors(jobs), Options{Workers: 1})
	chaosMatrix(t)

	path := filepath.Join(t.TempDir(), "ckpt.json")
	// Interrupt after the second completion; drain, then resume.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunReport(jobs, Options{
		Workers: 4, OnError: SkipFailed, Checkpoint: path, Context: ctx,
		OnProgress: func(done, _ int, fromCheckpoint bool) {
			if !fromCheckpoint && done == 2 {
				cancel()
			}
		},
	}, func(int, Job, *liteworp.Results) error { return nil })
	if err != nil && !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted leg: err = %v, want ErrInterrupted or completion", err)
	}

	got, report := foldChaos(t, jobs, Options{Workers: 8, OnError: SkipFailed, Checkpoint: path})
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("resumed chaos aggregates diverge:\nclean:   %+v\nresumed: %+v", base, got)
	}
	checkChaosFailed(t, report.Failed)
}
