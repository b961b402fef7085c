package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"liteworp"
	"liteworp/internal/metrics"
)

// The chaos harness checks the fail-fast contract with injected worker
// panics and errors, and a mid-run interrupt plus resume: for workers=1
// and workers=8 the campaign stops on its lowest-indexed failure, having
// aggregated exactly the jobs before it, and once the fault is gone a
// resumed campaign lands bitwise on a clean run. Faults go in through the
// newScenario hook and are keyed by seed, so the fault schedule itself is
// deterministic.

// chaosAgg folds a campaign the way the experiment figures do, keyed by
// job key.
type chaosAgg struct {
	Keys    []string
	Det     metrics.Summary
	Dropped metrics.Summary
	Curve   []float64
}

func foldChaos(jobs []Job, opt Options) (chaosAgg, error) {
	var det, fd metrics.MeanVar
	curve := NewCurve(30*time.Second, 120*time.Second)
	var keys []string
	err := Run(jobs, opt, func(_ int, job Job, r *liteworp.Results) error {
		keys = append(keys, job.Key)
		det.Add(r.DetectionRatio)
		fd.Add(r.FractionDropped)
		curve.Add(func(off time.Duration) float64 { return r.DroppedAt(r.OperationalStart + off) })
		return nil
	})
	return chaosAgg{Keys: keys, Det: det.Summary(), Dropped: fd.Summary(), Curve: curve.Means()}, err
}

// TestChaosAggregatesBitwiseIdentical: run=3 and run=5 panic, run=6
// returns an error. At every worker count the campaign fails with run=3's
// panic, and what it aggregated before failing is bitwise a clean
// campaign over runs 0-2.
func TestChaosAggregatesBitwiseIdentical(t *testing.T) {
	jobs := testJobs(8)
	base, err := foldChaos(jobs[:3], Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hookScenario(t, func(p liteworp.Params) error {
		switch runOf(p) {
		case 3, 5:
			panic("chaos: injected panic")
		case 6:
			return errors.New("chaos: injected failure")
		}
		return nil
	})

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := foldChaos(jobs, Options{Workers: workers})
			if err == nil || !strings.Contains(err.Error(), "campaign job 3 (test/run=3) seed 703: panic: chaos: injected panic") {
				t.Fatalf("err = %v, want the run=3 panic", err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("aggregates before the failure diverge from a clean run over runs 0-2:\nclean: %+v\nchaos: %+v", base, got)
			}
		})
	}
}

// TestChaosInterruptResume: with one fault injected (run=5 panics), a
// campaign is interrupted after its second completion; it ends
// interrupted, or failed on run=5 if the fault fired first. A resume with
// the fault still present fails on run=5 having collected exactly runs
// 0-4. With the fault gone, a final resume re-runs only what no leg
// completed and lands on the clean run's aggregates.
func TestChaosInterruptResume(t *testing.T) {
	jobs := testJobs(8)
	base, err := foldChaos(jobs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			faulty := true
			var built []int
			hookScenario(t, func(p liteworp.Params) error {
				mu.Lock()
				defer mu.Unlock()
				built = append(built, runOf(p))
				if faulty && runOf(p) == 5 {
					panic("chaos: injected panic")
				}
				return nil
			})
			const fault = "campaign job 5 (test/run=5) seed 705"
			path := filepath.Join(t.TempDir(), "ckpt.json")

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			completed := 0 // runs checkpointed by the first two legs
			_, err := foldChaos(jobs, Options{
				Workers: workers, Checkpoint: path, Context: ctx,
				OnProgress: func(done, _ int, fromCheckpoint bool) {
					if !fromCheckpoint && done == 2 {
						cancel()
					}
				},
			})
			if err == nil || !errors.Is(err, ErrInterrupted) && !strings.Contains(err.Error(), fault) {
				t.Fatalf("interrupted leg: err = %v, want ErrInterrupted or the run=5 panic", err)
			}

			got, err := foldChaos(jobs, Options{Workers: workers, Checkpoint: path,
				OnProgress: func(done, _ int, fromCheckpoint bool) { completed = done }})
			if err == nil || !strings.Contains(err.Error(), fault) {
				t.Fatalf("faulty resume: err = %v, want the run=5 panic", err)
			}
			if want := []string{"test/run=0", "test/run=1", "test/run=2", "test/run=3", "test/run=4"}; !reflect.DeepEqual(got.Keys, want) {
				t.Fatalf("faulty resume collected %v, want %v", got.Keys, want)
			}
			completed-- // one of the outcomes counted was run=5's failure

			mu.Lock()
			faulty, built = false, nil
			mu.Unlock()
			fresh := 0
			got, err = foldChaos(jobs, Options{Workers: workers, Checkpoint: path,
				OnProgress: func(_, _ int, fromCheckpoint bool) {
					if !fromCheckpoint {
						fresh++
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("resumed chaos aggregates diverge:\nclean:   %+v\nresumed: %+v", base, got)
			}
			if fresh+completed != len(jobs) || len(built) != fresh {
				t.Errorf("final resume ran %d jobs (built %v) after %d were checkpointed, want the %d missing ones",
					fresh, built, completed, len(jobs)-completed)
			}
		})
	}
}
