package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"liteworp"
)

// collectNotices returns an Options hook capturing notices thread-safely
// plus the accessor for them.
func collectNotices() (func(Notice), func() []Notice) {
	var mu sync.Mutex
	var ns []Notice
	return func(n Notice) {
			mu.Lock()
			ns = append(ns, n)
			mu.Unlock()
		}, func() []Notice {
			mu.Lock()
			defer mu.Unlock()
			return append([]Notice(nil), ns...)
		}
}

func quarantines(ns []Notice) []Notice {
	var out []Notice
	for _, n := range ns {
		if n.Kind == NoticeQuarantine {
			out = append(out, n)
		}
	}
	return out
}

// TestQuarantineUnreadableHeader: a checkpoint whose header line is
// garbage is moved aside to *.corrupt — original bytes preserved for
// post-mortem — and the campaign runs fresh instead of erroring out.
func TestQuarantineUnreadableHeader(t *testing.T) {
	jobs := testJobs(3)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	garbage := []byte("not json at all\x00\x01{{{")
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}

	onNotice, notices := collectNotices()
	fresh := 0
	got := runAggregates(t, jobs, Options{Workers: 2, Checkpoint: path, OnNotice: onNotice,
		OnProgress: func(_, _ int, fromCheckpoint bool) {
			if fromCheckpoint {
				t.Error("restored results from a garbage checkpoint")
			} else {
				fresh++
			}
		}})
	if fresh != len(jobs) {
		t.Errorf("fresh runs = %d, want %d", fresh, len(jobs))
	}
	base := runAggregates(t, jobs, Options{Workers: 1})
	if !reflect.DeepEqual(base, got) {
		t.Fatal("campaign after quarantine diverged from a clean run")
	}

	kept, err := os.ReadFile(path + ".corrupt")
	if err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if !bytes.Equal(kept, garbage) {
		t.Error("quarantine file does not preserve the original corrupt bytes")
	}
	qs := quarantines(notices())
	if len(qs) != 1 || !strings.Contains(qs[0].Msg, "unreadable header") {
		t.Errorf("quarantine notices = %+v, want one naming the unreadable header", qs)
	}
	// The rewritten checkpoint must be fully resumable.
	restored := 0
	runAggregates(t, jobs, Options{Workers: 1, Checkpoint: path,
		OnProgress: func(done, _ int, fromCheckpoint bool) {
			if fromCheckpoint {
				restored = done
			}
		}})
	if restored != len(jobs) {
		t.Errorf("rewritten checkpoint restored %d runs, want %d", restored, len(jobs))
	}
}

// writeTorn writes a checkpoint for jobs, then truncates it to header +
// keep complete entries + a partial slice of the next line, returning
// the truncated bytes.
func writeTorn(t *testing.T, jobs []Job, path string, keep int, cut func([]byte) []byte) []byte {
	t.Helper()
	runAggregates(t, jobs, Options{Workers: 2, Checkpoint: path})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < keep+2 {
		t.Fatalf("checkpoint has %d lines, want at least header + %d entries + one to tear", len(lines), keep+1)
	}
	var trunc []byte
	for _, l := range lines[:keep+1] { // header + keep entries
		trunc = append(trunc, l...)
	}
	trunc = append(trunc, cut(lines[keep+1])...)
	if err := os.WriteFile(path, trunc, 0o644); err != nil {
		t.Fatal(err)
	}
	return trunc
}

// TestQuarantineTornLastLine: the classic kill-mid-append shape — a
// complete prefix plus half of a trailing line. The damaged file is
// quarantined and the campaign proceeds from the last good entry.
func TestQuarantineTornLastLine(t *testing.T) {
	jobs := testJobs(5)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	base := runAggregates(t, jobs, Options{Workers: 1})
	torn := writeTorn(t, jobs, path, 2, func(l []byte) []byte { return l[:len(l)/2] })

	onNotice, notices := collectNotices()
	fresh, restored := 0, 0
	resumed := runAggregates(t, jobs, Options{Workers: 2, Checkpoint: path, OnNotice: onNotice,
		OnProgress: func(done, _ int, fromCheckpoint bool) {
			if fromCheckpoint {
				restored = done
			} else {
				fresh++
			}
		}})
	if restored != 2 {
		t.Errorf("restored %d runs from the torn checkpoint, want the 2 good entries", restored)
	}
	if fresh != 3 {
		t.Errorf("re-ran %d jobs, want exactly the 3 missing ones", fresh)
	}
	if !reflect.DeepEqual(base, resumed) {
		t.Fatal("resume after torn-line quarantine diverged from the uninterrupted run")
	}
	kept, err := os.ReadFile(path + ".corrupt")
	if err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if !bytes.Equal(kept, torn) {
		t.Error("quarantine file does not preserve the torn original")
	}
	qs := quarantines(notices())
	if len(qs) != 1 || !strings.Contains(qs[0].Msg, "torn or truncated") {
		t.Errorf("quarantine notices = %+v, want one torn-write notice", qs)
	}
}

// TestQuarantineTruncatedMidRecord: truncation that slices a record so
// early the line is lost entirely plus trailing garbage — the file is
// quarantined, the good prefix survives.
func TestQuarantineTruncatedMidRecord(t *testing.T) {
	jobs := testJobs(4)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	base := runAggregates(t, jobs, Options{Workers: 1})
	writeTorn(t, jobs, path, 1, func(l []byte) []byte {
		// Keep a sliver of the record and stitch unparseable bytes on, as
		// a block-aligned crash can leave behind.
		return append(l[:3], []byte("\xff\xfe garbage")...)
	})

	onNotice, notices := collectNotices()
	restored, fresh := 0, 0
	resumed := runAggregates(t, jobs, Options{Workers: 2, Checkpoint: path, OnNotice: onNotice,
		OnProgress: func(done, _ int, fromCheckpoint bool) {
			if fromCheckpoint {
				restored = done
			} else {
				fresh++
			}
		}})
	if restored != 1 || fresh != 3 {
		t.Errorf("restored=%d fresh=%d, want 1 restored and 3 fresh", restored, fresh)
	}
	if !reflect.DeepEqual(base, resumed) {
		t.Fatal("resume after mid-record truncation diverged")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if len(quarantines(notices())) != 1 {
		t.Errorf("want exactly one quarantine notice, got %+v", notices())
	}
}

// TestCheckpointRecordsPermanentFailure: under SkipFailed a failed job
// is recorded in the checkpoint, and a resume skips it — zero
// re-attempts of the doomed seed — while FailFast re-runs it.
func TestCheckpointRecordsPermanentFailure(t *testing.T) {
	jobs := testJobs(4)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	var mu sync.Mutex
	built, doomed := 0, true
	hookScenario(t, func(p liteworp.Params) error {
		mu.Lock()
		defer mu.Unlock()
		built++
		if doomed && runOf(p) == 1 {
			panic("injected")
		}
		return nil
	})

	report, err := RunReport(jobs, Options{Workers: 2, OnError: SkipFailed, Checkpoint: path},
		func(int, Job, *liteworp.Results) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Failed) != 1 || report.Failed[0].Index != 1 {
		t.Fatalf("Report.Failed = %v, want job 1", report.Failed)
	}

	// SkipFailed resume: the recorded failure is honored; no scenario is
	// built.
	built = 0
	report2, err := RunReport(jobs, Options{Workers: 2, OnError: SkipFailed, Checkpoint: path},
		func(int, Job, *liteworp.Results) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if built != 0 {
		t.Errorf("SkipFailed resume built %d scenarios, want 0 (all restored)", built)
	}
	if len(report2.Failed) != 1 || report2.Failed[0].Kind != FailPanic {
		t.Fatalf("restored failure = %+v, want the recorded panic", report2.Failed)
	}
	if report2.Restored != len(jobs) {
		t.Errorf("Restored = %d, want %d (3 results + 1 recorded failure)", report2.Restored, len(jobs))
	}

	// FailFast resume ignores the recorded failure and re-runs the job —
	// with the fault gone it now succeeds and the campaign completes.
	doomed = false
	fresh := 0
	full := runAggregates(t, jobs, Options{Workers: 2, Checkpoint: path,
		OnProgress: func(_, _ int, fromCheckpoint bool) {
			if !fromCheckpoint {
				fresh++
			}
		}})
	if fresh != 1 {
		t.Errorf("FailFast resume re-ran %d jobs, want exactly the recorded failure", fresh)
	}
	base := runAggregates(t, jobs, Options{Workers: 1})
	if !reflect.DeepEqual(base, full) {
		t.Fatal("recovered campaign diverged from a clean run")
	}
}

// TestParentFormatCheckpointResumes pins cross-version resume: a
// checkpoint written before retries were removed — its failure entries
// carry an "attempts" count — still restores under SkipFailed, and a
// FailFast resume re-runs exactly its recorded failure.
func TestParentFormatCheckpointResumes(t *testing.T) {
	jobs := testJobs(2)
	var res0 *liteworp.Results
	if err := Run(jobs[:1], Options{Workers: 1}, func(_ int, _ Job, r *liteworp.Results) error {
		res0 = r
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res0)
	if err != nil {
		t.Fatal(err)
	}
	parent := fmt.Sprintf(`{"fingerprint":%q,"jobs":2}
{"index":0,"key":"test/run=0","seed":700,"status":"ok","results":%s}
{"index":1,"key":"test/run=1","seed":701,"status":"failed","attempts":2,"kind":"panic","error":"panic: chaos: injected panic (test/run=1 attempt 2)"}
`, fingerprint(jobs), raw)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	var built []int64
	hookScenario(t, func(p liteworp.Params) error {
		built = append(built, p.Seed)
		return nil
	})

	if err := os.WriteFile(path, []byte(parent), 0o644); err != nil {
		t.Fatal(err)
	}
	var collected []*liteworp.Results
	report, err := RunReport(jobs, Options{Workers: 1, OnError: SkipFailed, Checkpoint: path},
		func(_ int, _ Job, r *liteworp.Results) error {
			collected = append(collected, r)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != 0 || report.Restored != 2 {
		t.Errorf("SkipFailed resume built %v and restored %d, want nothing built and 2 restored", built, report.Restored)
	}
	if len(collected) != 1 || !reflect.DeepEqual(collected[0], res0) {
		t.Error("the restored success does not match the result it was written from")
	}
	if len(report.Failed) != 1 || report.Failed[0].Index != 1 || report.Failed[0].Kind != FailPanic {
		t.Fatalf("Report.Failed = %v, want job 1 restored as a panic", report.Failed)
	}

	if err := os.WriteFile(path, []byte(parent), 0o644); err != nil {
		t.Fatal(err)
	}
	full := runAggregates(t, jobs, Options{Workers: 1, Checkpoint: path})
	if !reflect.DeepEqual(built, []int64{701}) {
		t.Errorf("FailFast resume built seeds %v, want exactly the recorded failure's [701]", built)
	}
	if base := runAggregates(t, jobs, Options{Workers: 1}); !reflect.DeepEqual(base, full) {
		t.Fatal("FailFast resume of a parent checkpoint diverged from a clean run")
	}
}

// TestForeignCheckpointNotQuarantined: a well-formed checkpoint for a
// different job list is stale state, not corruption — it is discarded
// (historical behavior) and no *.corrupt file appears.
func TestForeignCheckpointNotQuarantined(t *testing.T) {
	jobs := testJobs(3)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	runAggregates(t, jobs, Options{Workers: 1, Checkpoint: path})

	changed := testJobs(3)
	changed[0].Params.Seed = 4242
	onNotice, notices := collectNotices()
	runAggregates(t, changed, Options{Workers: 1, Checkpoint: path, OnNotice: onNotice,
		OnProgress: func(_, _ int, fromCheckpoint bool) {
			if fromCheckpoint {
				t.Error("restored from another campaign's checkpoint")
			}
		}})
	if _, err := os.Stat(path + ".corrupt"); !errors.Is(err, os.ErrNotExist) {
		t.Error("a merely foreign checkpoint was quarantined as corrupt")
	}
	if len(quarantines(notices())) != 0 {
		t.Errorf("unexpected quarantine notices: %+v", notices())
	}
}
