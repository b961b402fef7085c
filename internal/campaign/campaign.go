// Package campaign fans independent seeded simulation runs out across a
// bounded worker pool and merges their results in deterministic seed
// order. The paper's evaluation (§6) averages every figure over 30
// independent runs; those runs share nothing, so they are embarrassingly
// parallel — but the aggregates must not depend on scheduling. The
// engine therefore keeps a hard split:
//
//   - Each scenario runs start-to-finish on one worker goroutine. The
//     simulation kernel stays single-threaded and bit-reproducible; the
//     pool only decides *when* a run happens, never how it unfolds.
//   - Results are handed to the caller's collect function strictly in
//     ascending job order (the order the seeds were laid out), never in
//     completion order. A reorder buffer releases the completed prefix
//     as it fills, so aggregation streams instead of waiting for a
//     barrier.
//
// Consequently a campaign's aggregates are bitwise identical for any
// worker count, which the tests assert and the determinism lint keeps
// honest: the directive below declares this package to the
// no-raw-goroutine analyzer (see internal/lint), because concurrency here
// lives strictly above the simulation kernel boundary — and in exchange
// the kernel-ownership analyzer checks that no goroutine the pool spawns
// ever shares a run's kernel, wheel, or scenario state.
//
// The runtime is supervised (see supervise.go for the failure model): a
// job is a pure function of its Params, so it runs exactly once and a
// failure is final. A panicking job becomes a structured JobError
// instead of killing the process, a job that blows its real-time budget
// is recorded as a timeout, a cancelled Options.Context drains in-flight
// jobs into the checkpoint and returns ErrInterrupted with resumable
// state, and a stall watchdog reports per-worker liveness when progress
// halts.
//
// An optional JSON-lines checkpoint persists every completed run and
// every failure. Rerunning with the same checkpoint is the only retry:
// a SkipFailed resume skips recorded failures, a FailFast resume re-runs
// them.
//
//lint:concurrency-layer supervised worker pool fanning out independent seeded runs; each scenario stays single-threaded, panics and deadlines are handled per worker, and results merge in seed order
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"liteworp"
)

// newScenario, when non-nil, replaces liteworp.NewScenario so tests can
// substitute a constructor that panics, fails or wedges. attempt names
// liteworp.NewScenario itself, which keeps the simulator inside the lint
// call graph's reach from the worker goroutines.
var newScenario func(liteworp.Params) (*liteworp.Scenario, error)

// Job is one independent seeded simulation run. Params fully determines
// the run (Params.Seed carries the seed), so equal jobs always produce
// equal results.
type Job struct {
	// Key labels the job for checkpoints, progress and error messages
	// (e.g. "F8/M=2/lw=true/run=1"). Keys should be stable across
	// processes: checkpoint entries are matched by index, key and seed.
	Key string
	// Params configures the scenario.
	Params liteworp.Params
}

// Options configures a campaign run.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS, 1 runs the jobs
	// sequentially. The worker count never affects the aggregates, only
	// the wall-clock time.
	Workers int
	// Checkpoint, when non-empty, is a JSON-lines file recording every
	// completed run. A rerun over the same job list resumes from it; a
	// checkpoint written for a different job list is discarded, and an
	// unreadably corrupt one is quarantined to *.corrupt.
	Checkpoint string
	// OnProgress, when non-nil, observes completions: once per freshly
	// executed job (with the cumulative done count, in completion
	// order), and once up front with fromCheckpoint=true if any results
	// were restored. Progress is cosmetic — it never influences the
	// order results are collected in.
	OnProgress func(done, total int, fromCheckpoint bool)

	// JobTimeout, when > 0 (and Elapsed is wired), bounds the real time
	// of every job: a job still running past it is cancelled between
	// kernel slices and recorded as a FailTimeout.
	JobTimeout time.Duration
	// OnError selects FailFast (default) or SkipFailed handling of
	// failed jobs.
	OnError ErrorPolicy
	// Context, when non-nil, requests graceful shutdown once cancelled:
	// no further jobs are dispatched, in-flight jobs drain to completion
	// and are checkpointed, and Run returns an error wrapping
	// ErrInterrupted. Completed work stays resumable.
	Context context.Context
	// Sleep paces the stall watchdog; nil turns the watchdog off. The
	// engine itself never touches the wall clock — drivers inject it
	// here.
	Sleep SleepFunc
	// Elapsed returns monotonically increasing real elapsed time; it
	// enables JobTimeout. Like Sleep, this keeps wall-clock reads in the
	// caller, outside the determinism boundary.
	Elapsed func() time.Duration
	// StallAfter, when > 0 (and Sleep is wired), arms a watchdog that
	// emits a NoticeStall with per-worker liveness whenever no job
	// completes for a full interval.
	StallAfter time.Duration
	// OnNotice, when non-nil, receives supervision events (failures,
	// checkpoint quarantines, stall reports). It may be called
	// concurrently from worker goroutines and must be safe for
	// concurrent use.
	OnNotice func(Notice)
}

// outcome carries one finished job from a worker to the merge loop.
type outcome struct {
	i   int
	res *liteworp.Results
	err error
}

// workerState is one worker's liveness snapshot for the stall watchdog.
type workerState struct {
	busy   bool
	key    string
	simNow time.Duration // kernel clock, updated once per drive slice
}

// engine is the per-Run supervision state shared between the dispatcher,
// the workers, the merge loop, and the watchdog.
type engine struct {
	jobs []Job
	opt  Options

	mu     sync.Mutex
	states []workerState
	done   int // completed outcomes (successes + failures)
}

func (e *engine) notice(n Notice) {
	if e.opt.OnNotice != nil {
		e.opt.OnNotice(n)
	}
}

// interrupted reports whether graceful shutdown was requested.
func (e *engine) interrupted() bool {
	return e.opt.Context != nil && e.opt.Context.Err() != nil
}

func (e *engine) setState(w int, st workerState) {
	e.mu.Lock()
	e.states[w] = st
	e.mu.Unlock()
}

func (e *engine) setSimNow(w int, now time.Duration) {
	e.mu.Lock()
	e.states[w].simNow = now
	e.mu.Unlock()
}

// Run executes every job and calls collect exactly once per surviving
// job in ascending job index order — never completion order — streaming
// the completed prefix as it fills. Under FailFast the error of the
// lowest-indexed failed job is returned (after every job
// preceding it was collected), so error behavior is as deterministic as
// success behavior.
func Run(jobs []Job, opt Options, collect func(i int, job Job, res *liteworp.Results) error) error {
	_, err := RunReport(jobs, opt, collect)
	return err
}

// RunReport is Run plus a Report of what happened: completions,
// restorations, failures, and whether the campaign was interrupted.
// The Report is valid even when err is non-nil.
func RunReport(jobs []Job, opt Options, collect func(i int, job Job, res *liteworp.Results) error) (Report, error) {
	report := Report{Total: len(jobs)}
	if len(jobs) == 0 {
		return report, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	e := &engine{jobs: jobs, opt: opt, states: make([]workerState, workers)}

	results := make([]*liteworp.Results, len(jobs))
	errs := make([]error, len(jobs))

	var ckpt *checkpoint
	if opt.Checkpoint != "" {
		var err error
		ckpt, err = openCheckpoint(opt.Checkpoint, jobs, e.notice)
		if err != nil {
			return report, err
		}
		defer ckpt.close()
		for i, r := range ckpt.restored {
			if r != nil {
				results[i] = r
				report.Restored++
			}
		}
		// Recorded failures are honored only under SkipFailed, where
		// skipping them is deterministic; FailFast re-runs them. That
		// rerun is the campaign's one way to retry a job (the failure
		// may have been environmental, e.g. a blown real-time budget on
		// a loaded machine).
		if opt.OnError == SkipFailed {
			for i, je := range ckpt.restoredErr {
				if je != nil && results[i] == nil {
					errs[i] = je
					report.Restored++
				}
			}
		}
	}

	var pending []int
	for i := range jobs {
		if results[i] == nil && errs[i] == nil {
			pending = append(pending, i)
		}
	}

	total := len(jobs)
	done := report.Restored
	e.mu.Lock()
	e.done = done
	e.mu.Unlock()
	if opt.OnProgress != nil && report.Restored > 0 {
		opt.OnProgress(done, total, true)
	}

	// next is the lowest index not yet collected; advance releases the
	// completed prefix to collect in order. Under FailFast it freezes on
	// the first failed job; under SkipFailed it steps over failures so
	// the collect stream covers exactly the surviving subset, still in
	// job order. Either way it freezes on a collect refusal.
	next := 0
	var jobErr, collectErr, ckptErr error
	advance := func() {
		for next < total && jobErr == nil && collectErr == nil {
			if err := errs[next]; err != nil {
				if opt.OnError == SkipFailed {
					next++
					continue
				}
				jobErr = fmt.Errorf("campaign job %d (%s): %w", next, jobs[next].Key, err)
				return
			}
			r := results[next]
			if r == nil {
				return
			}
			if err := collect(next, jobs[next], r); err != nil {
				collectErr = err
				return
			}
			results[next] = nil // the prefix is consumed; free it
			next++
		}
	}
	advance() // checkpoint-restored prefix, if any

	if len(pending) > 0 && !e.interrupted() {
		var interruptCh <-chan struct{}
		if opt.Context != nil {
			interruptCh = opt.Context.Done()
		}
		jobCh := make(chan int)
		outCh := make(chan outcome)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range jobCh {
					o := e.execute(w, i)
					e.setState(w, workerState{})
					outCh <- o
				}
			}(w)
		}
		// The dispatcher stops feeding the pool the moment shutdown is
		// requested; workers then drain their in-flight job and exit.
		go func() {
			defer close(jobCh)
			for _, i := range pending {
				select {
				case jobCh <- i:
				case <-interruptCh:
					return
				}
			}
		}()
		go func() {
			wg.Wait()
			close(outCh)
		}()
		// The watchdog lives for the duration of the pool; cancelling
		// watchCtx releases its Sleep so it never outlives Run.
		watchCtx, watchCancel := context.WithCancel(context.Background())
		if opt.StallAfter > 0 && opt.Sleep != nil && opt.OnNotice != nil {
			go e.watchdog(watchCtx)
		}
		// Drain every outcome even after an error so the pool always
		// shuts down cleanly; advance() freezes once an error is set, so
		// late completions cannot leak into the aggregates.
		for o := range outCh {
			results[o.i], errs[o.i] = o.res, o.err
			done++
			e.mu.Lock()
			e.done = done
			e.mu.Unlock()
			if ckpt != nil && ckptErr == nil {
				if o.err == nil {
					ckptErr = ckpt.append(o.i, jobs[o.i], o.res)
				} else if je, ok := o.err.(*JobError); ok {
					ckptErr = ckpt.appendFailure(je)
				}
			}
			if opt.OnProgress != nil {
				opt.OnProgress(done, total, false)
			}
			advance()
		}
		watchCancel()
	}

	for _, err := range errs {
		if je, ok := err.(*JobError); ok {
			report.Failed = append(report.Failed, je)
		}
	}
	report.Completed = done - len(report.Failed)
	// A cancel that lands after the last collect interrupted nothing.
	report.Interrupted = e.interrupted() && next < total

	switch {
	case jobErr != nil:
		return report, jobErr
	case collectErr != nil:
		return report, collectErr
	case ckptErr != nil:
		return report, fmt.Errorf("campaign checkpoint %s: %w", opt.Checkpoint, ckptErr)
	case report.Interrupted:
		return report, fmt.Errorf("campaign: %w (completed %d/%d jobs; checkpoint state is resumable)",
			ErrInterrupted, done, total)
	}
	return report, nil
}

// execute runs job i once on worker w and classifies a failure into a
// *JobError. Equal jobs produce equal results, so there is nothing to
// retry: a failure is final for this campaign.
func (e *engine) execute(w, i int) outcome {
	job := e.jobs[i]
	e.setState(w, workerState{busy: true, key: job.Key})
	res, err := e.attempt(w, job)
	if err == nil {
		return outcome{i: i, res: res}
	}
	jerr := &JobError{Index: i, Key: job.Key, Seed: job.Params.Seed, Kind: classify(err), Err: err}
	if pe, ok := err.(*panicError); ok {
		jerr.Stack = pe.stack
	}
	e.notice(Notice{Kind: NoticeFailed, Job: job.Key,
		Msg: fmt.Sprintf("%s failed [%s]: %v", job.Key, jerr.Kind, err)})
	return outcome{i: i, err: jerr}
}

// driveSlices is how many budget checkpoints a run gets: the kernel is
// advanced in driveSlices equal simulated-time slices, and the real-time
// budget is checked between slices. Slicing RunUntil is
// behavior-identical to one call — events fire in the same order and the
// clock lands on the same horizon — which the experiments golden test
// and the trace-hash test pin.
const driveSlices = 32

// attempt builds and runs one job, converting a panic anywhere inside
// scenario construction or execution into a *panicError instead of
// letting it kill the process — the core of worker supervision. The
// real-time budget covers construction too.
func (e *engine) attempt(w int, job Job) (res *liteworp.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: string(debug.Stack())}
		}
	}()
	timed := e.opt.JobTimeout > 0 && e.opt.Elapsed != nil
	var start time.Duration
	if timed {
		start = e.opt.Elapsed()
	}
	build := liteworp.NewScenario
	if newScenario != nil {
		build = newScenario
	}
	s, err := build(job.Params)
	if err != nil {
		return nil, err
	}
	horizon := s.OperationalStart() + job.Params.Duration
	step := horizon / driveSlices
	if step <= 0 {
		step = horizon
	}
	k := s.Kernel()
	for now := time.Duration(0); now < horizon; {
		now = min(now+step, horizon)
		if err := k.RunUntil(now); err != nil {
			return nil, err
		}
		e.setSimNow(w, k.Now())
		if timed && e.opt.Elapsed()-start > e.opt.JobTimeout {
			return nil, &timeoutError{limit: e.opt.JobTimeout}
		}
	}
	return s.Results(), nil
}

// watchdog reports per-worker liveness whenever a full StallAfter
// interval passes with no job completing. It only observes — a stalled
// worker is never killed, because the in-flight kernel cannot be
// preempted safely; the report tells the operator which seed is wedged.
func (e *engine) watchdog(ctx context.Context) {
	last := -1
	for {
		e.opt.Sleep(ctx, e.opt.StallAfter)
		if ctx.Err() != nil {
			return
		}
		e.mu.Lock()
		d := e.done
		var busy []string
		for w, st := range e.states {
			if st.busy {
				busy = append(busy, fmt.Sprintf("worker %d: %s, sim clock %v", w, st.key, st.simNow))
			}
		}
		e.mu.Unlock()
		if d == last && len(busy) > 0 {
			e.notice(Notice{Kind: NoticeStall,
				Msg: fmt.Sprintf("no job completed in the last %v\n  %s", e.opt.StallAfter, strings.Join(busy, "\n  "))})
		}
		last = d
	}
}
