package campaign

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// This file holds the failure model of the campaign runtime: how one
// job attempt fails (panic, error, blown budget), how failures are
// classified and retried, and what the engine reports about a finished
// campaign. The paper's thesis is graceful degradation under
// misbehaving participants; the campaign engine applies the same
// discipline to its own participants, the workers. A crashed or stuck
// job must never take down the process or the hours of completed runs
// around it — it becomes a structured JobError, is retried on a
// deterministic schedule, and at worst is recorded as permanently
// failed while the rest of the campaign proceeds.

// ErrInterrupted is returned (wrapped) by Run/RunReport when the
// campaign was cut short by Options.Context: dispatch stopped, in-flight
// jobs drained, and every completed run is durably checkpointed, so a
// rerun with the same checkpoint resumes where this one left off.
var ErrInterrupted = errors.New("campaign interrupted")

// errAbandoned marks a job whose retry schedule was cut off by a
// shutdown request. The job is neither completed nor permanently failed:
// it is left un-run (and un-checkpointed) so a resume re-attempts it.
var errAbandoned = errors.New("campaign job abandoned by shutdown")

// FailureKind classifies why a job failed.
type FailureKind string

const (
	// FailError: the scenario returned an error (construction or run).
	FailError FailureKind = "error"
	// FailPanic: the job crashed; the worker recovered the panic.
	FailPanic FailureKind = "panic"
	// FailTimeout: the job exceeded its real-time or simulated-time
	// budget and was cancelled via its attempt context.
	FailTimeout FailureKind = "timeout"
)

// JobError is the structured record of a failed job: which job, which
// seed, how it died, how often it was tried, and — for panics — the
// recovered stack. It is the error type Run returns under FailFast and
// the entry type Report.Failed carries under SkipFailed.
type JobError struct {
	Index    int
	Key      string
	Seed     int64
	Attempts int
	Kind     FailureKind
	// Stack is the recovered goroutine stack when Kind == FailPanic.
	Stack string
	// Err is the last attempt's underlying error.
	Err error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("job %d (%s, seed %d) failed after %d attempt(s) [%s]: %v",
		e.Index, e.Key, e.Seed, e.Attempts, e.Kind, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// panicError carries a recovered panic value and its stack out of a
// worker attempt.
type panicError struct {
	val   any
	stack string
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// timeoutError is the cancellation cause recorded when a job attempt
// blows one of its budgets.
type timeoutError struct {
	budget string // "real-time" or "simulated-time"
	limit  time.Duration
}

func (t *timeoutError) Error() string {
	return fmt.Sprintf("%s budget %v exceeded", t.budget, t.limit)
}

// classify maps an attempt error to its FailureKind.
func classify(err error) FailureKind {
	var pe *panicError
	if errors.As(err, &pe) {
		return FailPanic
	}
	var te *timeoutError
	if errors.As(err, &te) {
		return FailTimeout
	}
	return FailError
}

// Backoff is the capped exponential retry schedule. The delay is a pure
// function of the retry index — base doubled per prior retry, capped —
// with no wall-clock reads and no jitter, so the schedule is fully
// deterministic and the nondet-taint lint stays green: the engine never
// computes a delay from real time, it only hands the precomputed
// duration to the injected Options.Sleep.
type Backoff struct {
	// Base is the delay before the first retry; 0 disables delays.
	Base time.Duration
	// Max caps the doubling; 0 means uncapped.
	Max time.Duration
}

// Delay returns the pause scheduled before retry n (n >= 1):
// Base * 2^(n-1), capped at Max.
func (b Backoff) Delay(retry int) time.Duration {
	if b.Base <= 0 || retry <= 0 {
		return 0
	}
	d := b.Base
	for i := 1; i < retry; i++ {
		d *= 2
		if d <= 0 || (b.Max > 0 && d >= b.Max) { // d <= 0: overflow fence
			return b.Max
		}
	}
	if b.Max > 0 && d > b.Max {
		return b.Max
	}
	return d
}

// Budget bounds one job attempt. Both limits are per attempt, not per
// job: a retried job gets a fresh budget.
type Budget struct {
	// Real is the wall-clock budget. It is only enforced when
	// Options.Elapsed is wired (the engine itself may not read the wall
	// clock); zero disables it.
	Real time.Duration
	// Sim is the simulated-clock budget: the attempt is cancelled once
	// the kernel clock reaches it with the run still incomplete. Zero
	// disables it. Violations are deterministic — every retry times out
	// the same way — so a Sim timeout is always a permanent failure.
	Sim time.Duration
}

// ErrorPolicy selects what a permanently failed job does to the rest of
// the campaign.
type ErrorPolicy int

const (
	// FailFast (the default) aborts the campaign with the error of the
	// lowest-indexed permanently failed job, after collecting exactly
	// the jobs preceding it — the historical, deterministic behavior.
	FailFast ErrorPolicy = iota
	// SkipFailed records the failure in Report.Failed and in the
	// checkpoint, skips the job's collect call, and keeps going. The
	// aggregates then cover exactly the surviving job subset, still in
	// job order, so they remain bitwise identical to a clean campaign
	// over that same subset.
	SkipFailed
)

// NoticeKind labels a supervision event.
type NoticeKind string

const (
	// NoticeRetry: an attempt failed and a retry is scheduled.
	NoticeRetry NoticeKind = "retry"
	// NoticeFailed: a job exhausted its attempts and is permanently
	// failed.
	NoticeFailed NoticeKind = "failed"
	// NoticeQuarantine: an unreadably corrupt checkpoint file was moved
	// aside to *.corrupt.
	NoticeQuarantine NoticeKind = "quarantine"
	// NoticeStall: the watchdog saw no job complete for a full
	// Options.StallAfter interval; Msg carries per-worker liveness.
	NoticeStall NoticeKind = "stall"
)

// Notice is one supervision event: a retry, a permanent failure, a
// checkpoint quarantine, or a stall report. Notices are diagnostics —
// they never influence results.
type Notice struct {
	Kind    NoticeKind
	Job     string // job key, when the notice concerns one job
	Attempt int    // failing attempt number, for retry/failed
	Delay   time.Duration
	Msg     string
}

// SleepFunc pauses for d or until ctx is cancelled, whichever comes
// first. The engine never sleeps on the wall clock itself; callers that
// want real backoff delays and stall ticks inject one (cmd wires
// time.NewTimer there, where wall-clock use is allowed). A nil SleepFunc
// means no waiting: retries are immediate and the watchdog is disabled —
// the deterministic default the tests rely on.
type SleepFunc func(ctx context.Context, d time.Duration)

// Report summarizes a finished (or interrupted) campaign.
type Report struct {
	// Total is the number of jobs in the campaign.
	Total int
	// Completed counts jobs with a collected (or restored) result.
	Completed int
	// Restored counts checkpoint-restored outcomes (results and, under
	// SkipFailed, recorded permanent failures).
	Restored int
	// Retried is the total number of retry attempts across all jobs.
	Retried int
	// Failed lists permanently failed jobs in ascending job order.
	Failed []*JobError
	// Interrupted reports whether Options.Context ended the campaign
	// early.
	Interrupted bool
}
