package campaign

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"liteworp"
)

// hookScenario makes fault run before every scenario the engine builds
// for the rest of the test: a non-nil error fails the job, a panic
// inside fault crashes it, and blocking inside fault wedges its worker.
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

// TestPanicBecomesJobError is the supervision contract: a worker panic
// becomes a structured JobError — job, seed, kind, stack — instead of
// killing the process.
func TestPanicBecomesJobError(t *testing.T) {
	jobs := testJobs(3)
	hookScenario(t, func(p liteworp.Params) error {
		if runOf(p) == 1 {
			panic("injected")
		}
		return nil
	})
	_, err := RunReport(jobs, Options{Workers: 2},
		func(int, Job, *liteworp.Results) error { return nil })
	if err == nil {
		t.Fatal("a panicking job did not fail the campaign under FailFast")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %T (%v), want a wrapped *JobError", err, err)
	}
	if je.Index != 1 || je.Key != "test/run=1" || je.Seed != jobs[1].Params.Seed {
		t.Errorf("JobError identifies %d/%s/%d, want job 1", je.Index, je.Key, je.Seed)
	}
	if je.Kind != FailPanic {
		t.Errorf("Kind = %s, want %s", je.Kind, FailPanic)
	}
	if !strings.Contains(je.Stack, "campaign") {
		t.Errorf("JobError.Stack does not look like a goroutine stack: %q", je.Stack)
	}
}

// TestRealBudgetTimeout drives the real-time deadline with a fake clock
// that jumps an hour while job 1 is being built: that job alone blows
// its one-minute budget, is recorded as a timeout, and the survivors
// aggregate exactly like a clean campaign over them.
func TestRealBudgetTimeout(t *testing.T) {
	jobs := testJobs(3)
	base, _ := foldChaos(t, []Job{jobs[0], jobs[2]}, Options{Workers: 1})

	var mu sync.Mutex
	var fake time.Duration
	hookScenario(t, func(p liteworp.Params) error {
		if runOf(p) == 1 {
			mu.Lock()
			fake += time.Hour
			mu.Unlock()
		}
		return nil
	})
	got, report := foldChaos(t, jobs, Options{
		Workers: 1, OnError: SkipFailed, JobTimeout: time.Minute,
		Elapsed: func() time.Duration {
			mu.Lock()
			defer mu.Unlock()
			return fake
		},
	})
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("survivors of a timed-out job diverged from a clean run over them:\nclean: %+v\ngot:   %+v", base, got)
	}
	if len(report.Failed) != 1 || report.Failed[0].Index != 1 || report.Failed[0].Kind != FailTimeout {
		t.Fatalf("Report.Failed = %v, want exactly job 1 (timeout)", report.Failed)
	}
	if msg := report.Failed[0].Err.Error(); !strings.Contains(msg, "real-time budget") {
		t.Errorf("timeout cause %q does not name the real-time budget", msg)
	}
}

// TestSkipFailedCollectsSurvivorsInOrder pins the SkipFailed stream
// shape: collect sees exactly the surviving indices, ascending.
func TestSkipFailedCollectsSurvivorsInOrder(t *testing.T) {
	jobs := testJobs(5)
	hookScenario(t, func(p liteworp.Params) error {
		if r := runOf(p); r == 1 || r == 3 {
			panic("injected")
		}
		return nil
	})
	var collected []int
	report, err := RunReport(jobs, Options{Workers: 4, OnError: SkipFailed},
		func(i int, _ Job, _ *liteworp.Results) error {
			collected = append(collected, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collected, []int{0, 2, 4}) {
		t.Fatalf("collected %v, want the surviving indices [0 2 4] in order", collected)
	}
	if len(report.Failed) != 2 || report.Failed[0].Index != 1 || report.Failed[1].Index != 3 {
		t.Fatalf("Report.Failed = %v, want jobs 1 and 3 in ascending order", report.Failed)
	}
	if report.Completed != 3 {
		t.Errorf("Completed = %d, want 3", report.Completed)
	}
}

// TestInterruptDrainsAndResumes is the SIGTERM-equivalent story (the
// cmd driver cancels this same Options.Context from its signal handler):
// cancellation mid-campaign returns ErrInterrupted with a checkpoint
// from which a resumed campaign produces deep-equal aggregates vs. an
// uninterrupted run. Runs under -race in CI, covering the drain path.
func TestInterruptDrainsAndResumes(t *testing.T) {
	jobs := testJobs(6)
	dir := t.TempDir()
	path := dir + "/ckpt.json"
	base := runAggregates(t, jobs, Options{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	completions := 0
	report, err := RunReport(jobs, Options{
		Workers: 2, Checkpoint: path, Context: ctx,
		OnProgress: func(done, total int, fromCheckpoint bool) {
			if !fromCheckpoint {
				completions++
				if completions == 2 {
					cancel() // the signal handler's move
				}
			}
		},
	}, func(int, Job, *liteworp.Results) error { return nil })
	if err == nil {
		// The race where every job finished before the cancel landed is
		// legal (drain semantics); the resume check below still holds.
		t.Log("campaign completed before the interrupt landed")
	} else if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	} else if !report.Interrupted {
		t.Error("Report.Interrupted = false after an interrupt")
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
	if fresh+completions < len(jobs) {
		t.Errorf("fresh(%d) + pre-interrupt completions(%d) < %d jobs: checkpoint lost finished work",
			fresh, completions, len(jobs))
	}
}

// TestInterruptBeforeStart: a context already cancelled when Run is
// called dispatches nothing and reports an interrupted, resumable state.
func TestInterruptBeforeStart(t *testing.T) {
	jobs := testJobs(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	report, err := RunReport(jobs, Options{Workers: 2, Context: ctx},
		func(int, Job, *liteworp.Results) error { ran++; return nil })
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if ran != 0 || report.Completed != 0 {
		t.Errorf("pre-cancelled campaign still ran %d jobs (completed %d)", ran, report.Completed)
	}
}

// TestInterruptAfterLastCollect: a cancel that lands inside the final
// collect leaves nothing uncollected, so the campaign is complete, not
// interrupted — the driver must keep the finished figure.
func TestInterruptAfterLastCollect(t *testing.T) {
	jobs := testJobs(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	report, err := RunReport(jobs, Options{Workers: 2, Context: ctx},
		func(i int, _ Job, _ *liteworp.Results) error {
			if i == len(jobs)-1 {
				cancel()
			}
			return nil
		})
	if err != nil {
		t.Fatalf("err = %v, want nil: every job was collected", err)
	}
	if report.Interrupted || report.Completed != len(jobs) {
		t.Errorf("report = %+v, want %d completed and not interrupted", report, len(jobs))
	}
}

// TestStallWatchdogReportsLiveness: when no job completes for a full
// StallAfter interval, the watchdog emits a NoticeStall naming the busy
// worker, its job, and simulated-clock position. The job blocks inside
// the scenario hook until the first stall report arrives, so the test
// is deterministic without any real clock.
func TestStallWatchdogReportsLiveness(t *testing.T) {
	jobs := testJobs(1)
	stalled := make(chan struct{})
	var once sync.Once
	hookScenario(t, func(liteworp.Params) error {
		<-stalled // wedge until the watchdog notices
		return nil
	})
	opt := Options{
		Workers:    1,
		StallAfter: time.Minute,
		// The fake sleep returns immediately, so the watchdog ticks as
		// fast as it can while the job is wedged.
		Sleep: func(ctx context.Context, _ time.Duration) {},
		OnNotice: func(n Notice) {
			if n.Kind == NoticeStall {
				if !strings.Contains(n.Msg, "test/run=0") || !strings.Contains(n.Msg, "worker 0") {
					t.Errorf("stall report %q does not name the wedged worker and job", n.Msg)
				}
				once.Do(func() { close(stalled) })
			}
		},
	}
	got := runAggregates(t, jobs, opt)
	base := runAggregates(t, jobs, Options{Workers: 1})
	if !reflect.DeepEqual(base, got) {
		t.Fatal("a stalled-then-released campaign changed the aggregates")
	}
	select {
	case <-stalled:
	default:
		t.Fatal("watchdog never reported the stall")
	}
}
