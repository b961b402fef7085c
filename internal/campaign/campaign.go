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
// A campaign fails fast. A job is a pure function of its Params, so a
// job that errors or panics would do so again: the campaign stops
// dispatching and returns that job's error, naming its index, key and
// seed (and, for a panic, the stack), after collecting exactly the jobs
// before it. A cancelled Options.Context drains the in-flight jobs and
// returns ErrInterrupted. Either way every completed run is in the
// optional JSON-lines checkpoint, and rerunning with the same checkpoint
// resumes from it.
//
//lint:concurrency-layer worker pool fanning out independent seeded runs; each scenario stays single-threaded on one worker, and results merge in seed order
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"liteworp"
)

// ErrInterrupted is returned (wrapped) by Run when Options.Context ended
// the campaign with jobs left uncollected: dispatch stopped, in-flight
// jobs drained, and every completed run is durably checkpointed, so a
// rerun with the same checkpoint resumes where this one left off.
var ErrInterrupted = errors.New("campaign interrupted")

// newScenario, when non-nil, replaces liteworp.NewScenario so tests can
// substitute a constructor that panics or fails. execute names
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
	// order results are collected in. It is called on the goroutine that
	// called Run, as OnNotice is.
	OnProgress func(done, total int, fromCheckpoint bool)
	// Context, when non-nil, requests graceful shutdown once cancelled:
	// no further jobs are dispatched, in-flight jobs drain to completion
	// and are checkpointed, and Run returns an error wrapping
	// ErrInterrupted. Completed work stays resumable.
	Context context.Context
	// OnNotice, when non-nil, receives a message when a corrupt
	// checkpoint is quarantined. Notices never influence results.
	OnNotice func(msg string)
}

// outcome carries one finished job from a worker to the merge loop.
type outcome struct {
	i   int
	res *liteworp.Results
	err error
}

// Run executes every job and calls collect exactly once per job in
// ascending job index order — never completion order — streaming the
// completed prefix as it fills. The first failed job or refused collect
// stops dispatch; Run then returns the error of the lowest-indexed
// failure, after every job preceding it was collected, so error behavior
// is as deterministic as success behavior.
func Run(jobs []Job, opt Options, collect func(i int, job Job, res *liteworp.Results) error) error {
	total := len(jobs)
	if total == 0 {
		return nil
	}
	results := make([]*liteworp.Results, total)
	errs := make([]error, total)
	var ckpt *checkpoint
	if opt.Checkpoint != "" {
		var err error
		if ckpt, err = openCheckpoint(opt.Checkpoint, jobs, opt.OnNotice); err != nil {
			return err
		}
		defer ckpt.close()
		copy(results, ckpt.restored)
	}
	var pending []int
	for i, r := range results {
		if r == nil {
			pending = append(pending, i)
		}
	}
	done := total - len(pending)
	if opt.OnProgress != nil && done > 0 {
		opt.OnProgress(done, total, true)
	}

	// next is the lowest index not yet collected; advance releases the
	// completed prefix to collect in order and freezes on the first
	// failed job or refused collect.
	next := 0
	var err, ckptErr error
	advance := func() {
		for next < total && err == nil && results[next] != nil {
			if err = collect(next, jobs[next], results[next]); err != nil {
				return
			}
			results[next] = nil // the prefix is consumed; free it
			next++
		}
		if next < total && err == nil {
			err = errs[next]
		}
	}
	advance() // checkpoint-restored prefix, if any

	parent := opt.Context
	if parent == nil {
		parent = context.Background()
	}
	if len(pending) > 0 && err == nil && parent.Err() == nil {
		// stop ends dispatch on an interrupt or the first failure; the
		// workers then drain their in-flight jobs and exit. Dispatch is
		// in ascending job order, so every job below a failed one has
		// already been dispatched and the lowest failure is the same for
		// any worker count.
		ctx, stop := context.WithCancel(parent)
		defer stop()
		for o := range startPool(ctx, jobs, pending, opt.Workers) {
			results[o.i], errs[o.i] = o.res, o.err
			done++
			if ckpt != nil && o.err == nil && ckptErr == nil {
				ckptErr = ckpt.append(o.i, jobs[o.i], o.res)
			}
			if opt.OnProgress != nil {
				opt.OnProgress(done, total, false)
			}
			advance()
			if o.err != nil || err != nil || ckptErr != nil {
				stop()
			}
		}
	}

	switch {
	case err != nil:
		return err
	case ckptErr != nil:
		return fmt.Errorf("campaign checkpoint %s: %w", opt.Checkpoint, ckptErr)
	case next < total: // only an interrupt leaves jobs uncollected without an error
		return fmt.Errorf("campaign: %w (completed %d/%d jobs; checkpoint state is resumable)",
			ErrInterrupted, done, total)
	}
	return nil
}

// startPool runs the pending jobs on a pool of workers (<= 0 means
// GOMAXPROCS) and returns the channel their outcomes arrive on, in
// completion order. The channel closes once dispatch has stopped — every
// job sent, or ctx cancelled — and every dispatched job has finished.
func startPool(ctx context.Context, jobs []Job, pending []int, workers int) <-chan outcome {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(pending))
	jobCh := make(chan int)
	outCh := make(chan outcome)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobCh {
				res, err := execute(i, jobs[i])
				outCh <- outcome{i: i, res: res, err: err}
			}
		}()
	}
	go func() {
		defer close(jobCh)
		for _, i := range pending {
			select {
			case jobCh <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outCh)
	}()
	return outCh
}

// execute builds and runs job i. An error or a panic anywhere in
// construction or the run comes back as an error naming the job, its key
// and seed; a panic also carries its stack. Recovering here keeps a
// crashing job from killing the process before the checkpoint is closed.
func execute(i int, job Job) (res *liteworp.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
		if err != nil {
			res, err = nil, fmt.Errorf("campaign job %d (%s) seed %d: %w", i, job.Key, job.Params.Seed, err)
		}
	}()
	build := liteworp.NewScenario
	if newScenario != nil {
		build = newScenario
	}
	s, err := build(job.Params)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
