package campaign

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// This file holds the failure model of the campaign runtime: how a job
// fails (panic, error, blown budget), how failures are classified, and
// what the engine reports about a finished campaign. The paper's thesis
// is graceful degradation under misbehaving participants; the campaign
// engine applies the same discipline to its own participants, the
// workers. A crashed or stuck job must never take down the process or
// the hours of completed runs around it — it becomes a structured
// JobError and is recorded as failed while the rest of the campaign
// proceeds. A job is a pure function of its Params, so running it again
// in the same process cannot change the outcome; a rerun with the
// checkpoint under FailFast is how a failed job gets another try.

// ErrInterrupted is returned (wrapped) by Run/RunReport when the
// campaign was cut short by Options.Context: dispatch stopped, in-flight
// jobs drained, and every completed run is durably checkpointed, so a
// rerun with the same checkpoint resumes where this one left off.
var ErrInterrupted = errors.New("campaign interrupted")

// FailureKind classifies why a job failed.
type FailureKind string

const (
	// FailError: the scenario returned an error (construction or run).
	FailError FailureKind = "error"
	// FailPanic: the job crashed; the worker recovered the panic.
	FailPanic FailureKind = "panic"
	// FailTimeout: the job exceeded Options.JobTimeout and was
	// cancelled between kernel slices.
	FailTimeout FailureKind = "timeout"
)

// JobError is the structured record of a failed job: which job, which
// seed, how it died, and — for panics — the recovered stack. It is the
// error type Run returns under FailFast and the entry type Report.Failed
// carries under SkipFailed.
type JobError struct {
	Index int
	Key   string
	Seed  int64
	Kind  FailureKind
	// Stack is the recovered goroutine stack when Kind == FailPanic.
	Stack string
	// Err is the underlying error.
	Err error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("job %d (%s, seed %d) failed [%s]: %v", e.Index, e.Key, e.Seed, e.Kind, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// panicError carries a recovered panic value and its stack out of a
// worker.
type panicError struct {
	val   any
	stack string
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// timeoutError is the failure recorded when a job blows
// Options.JobTimeout.
type timeoutError struct {
	limit time.Duration
}

func (t *timeoutError) Error() string {
	return fmt.Sprintf("real-time budget %v exceeded", t.limit)
}

// classify maps a job error to its FailureKind.
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

// ErrorPolicy selects what a failed job does to the rest of the
// campaign.
type ErrorPolicy int

const (
	// FailFast (the default) aborts the campaign with the error of the
	// lowest-indexed failed job, after collecting exactly the jobs
	// preceding it — the historical, deterministic behavior.
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
	// NoticeFailed: a job failed; Msg names the job and the cause.
	NoticeFailed NoticeKind = "failed"
	// NoticeQuarantine: an unreadably corrupt checkpoint file was moved
	// aside to *.corrupt.
	NoticeQuarantine NoticeKind = "quarantine"
	// NoticeStall: the watchdog saw no job complete for a full
	// Options.StallAfter interval; Msg carries per-worker liveness.
	NoticeStall NoticeKind = "stall"
)

// Notice is one supervision event: a failure, a checkpoint quarantine,
// or a stall report. Notices are diagnostics — they never influence
// results.
type Notice struct {
	Kind NoticeKind
	Job  string // job key, when the notice concerns one job
	Msg  string
}

// SleepFunc pauses for d or until ctx is cancelled, whichever comes
// first. The engine never sleeps on the wall clock itself; callers that
// want stall ticks inject one (cmd wires time.NewTimer there, where
// wall-clock use is allowed). A nil SleepFunc disables the watchdog —
// the deterministic default the tests rely on.
type SleepFunc func(ctx context.Context, d time.Duration)

// Report summarizes a finished (or interrupted) campaign.
type Report struct {
	// Total is the number of jobs in the campaign.
	Total int
	// Completed counts jobs with a collected (or restored) result.
	Completed int
	// Restored counts checkpoint-restored outcomes (results and, under
	// SkipFailed, recorded failures).
	Restored int
	// Failed lists failed jobs in ascending job order.
	Failed []*JobError
	// Interrupted reports whether Options.Context ended the campaign
	// with jobs left uncollected.
	Interrupted bool
}
