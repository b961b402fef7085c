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
func collectNotices() (func(string), func() []string) {
	var mu sync.Mutex
	var ns []string
	return func(n string) {
			mu.Lock()
			ns = append(ns, n)
			mu.Unlock()
		}, func() []string {
			mu.Lock()
			defer mu.Unlock()
			return append([]string(nil), ns...)
		}
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
	qs := notices()
	if len(qs) != 1 || !strings.Contains(qs[0], "unreadable header") {
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
	qs := notices()
	if len(qs) != 1 || !strings.Contains(qs[0], "torn or truncated") {
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
	if len(notices()) != 1 {
		t.Errorf("want exactly one quarantine notice, got %+v", notices())
	}
}

// TestCheckpointRecordsPermanentFailure: a permanent failure leaves the
// checkpoint holding every run completed before the campaign stopped, and
// nothing for the failed job itself. A rerun with the fault still there
// fails again without re-running the checkpointed jobs; once the fault is
// gone, a rerun builds exactly the failed job and those never run.
func TestCheckpointRecordsPermanentFailure(t *testing.T) {
	jobs := testJobs(4)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	var mu sync.Mutex
	var built []int
	doomed := true
	hookScenario(t, func(p liteworp.Params) error {
		mu.Lock()
		defer mu.Unlock()
		built = append(built, runOf(p))
		if doomed && runOf(p) == 1 {
			panic("injected")
		}
		return nil
	})
	const fault = "campaign job 1 (test/run=1) seed 701"
	completed := 0
	err := Run(jobs, Options{Workers: 2, Checkpoint: path,
		OnProgress: func(done, _ int, _ bool) { completed = done - 1 }}, // one outcome is the failure
		func(int, Job, *liteworp.Results) error { return nil })
	if err == nil || !strings.Contains(err.Error(), fault) {
		t.Fatalf("err = %v, want the job-1 panic", err)
	}
	first := append([]int(nil), built...)

	// The fault is still there: the checkpointed runs are restored, not
	// rebuilt, and the campaign fails on job 1 again.
	built = nil
	restored := 0
	err = Run(jobs, Options{Workers: 2, Checkpoint: path,
		OnProgress: func(done, _ int, fromCheckpoint bool) {
			if fromCheckpoint {
				restored = done
			}
		}}, func(int, Job, *liteworp.Results) error { return nil })
	if err == nil || !strings.Contains(err.Error(), fault) {
		t.Fatalf("rerun: err = %v, want the job-1 panic", err)
	}
	if restored != completed || restored != len(first)-1 {
		t.Errorf("rerun restored %d runs, want the %d completed before the failure (first run built %v)", restored, completed, first)
	}
	for _, r := range first {
		if r != 1 && containsRun(built, r) {
			t.Errorf("rerun rebuilt checkpointed run %d (built %v)", r, built)
		}
	}

	// With the fault gone the rerun builds only what is not checkpointed
	// and the campaign completes.
	mu.Lock()
	doomed, built = false, nil
	mu.Unlock()
	fresh := 0
	full := runAggregates(t, jobs, Options{Workers: 2, Checkpoint: path,
		OnProgress: func(done, _ int, fromCheckpoint bool) {
			if fromCheckpoint {
				restored = done
			} else {
				fresh++
			}
		}})
	if restored+fresh != len(jobs) || len(built) != fresh || !containsRun(built, 1) {
		t.Errorf("recovery restored %d and built %v, want job 1 and the rest of the %d jobs", restored, built, len(jobs))
	}
	base := runAggregates(t, jobs, Options{Workers: 1})
	if !reflect.DeepEqual(base, full) {
		t.Fatal("recovered campaign diverged from a clean run")
	}
}

func containsRun(runs []int, r int) bool {
	for _, x := range runs {
		if x == r {
			return true
		}
	}
	return false
}

// TestParentFormatCheckpointResumes pins cross-version resume: a
// checkpoint written by an older version holds failure entries
// ("status":"failed", with an "attempts" count, a kind and an error). Its
// "ok" entries are restored; its failed jobs run again.
func TestParentFormatCheckpointResumes(t *testing.T) {
	jobs := testJobs(3)
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
	parent := fmt.Sprintf(`{"fingerprint":%q,"jobs":3}
{"index":0,"key":"test/run=0","seed":700,"status":"ok","results":%s}
{"index":1,"key":"test/run=1","seed":701,"status":"failed","attempts":2,"kind":"panic","error":"panic: chaos: injected panic (test/run=1 attempt 2)"}
{"index":2,"key":"test/run=2","seed":702,"status":"failed","kind":"timeout","error":"real-time budget 1m0s exceeded"}
`, fingerprint(jobs), raw)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := os.WriteFile(path, []byte(parent), 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var built []int64
	hookScenario(t, func(p liteworp.Params) error {
		mu.Lock()
		built = append(built, p.Seed)
		mu.Unlock()
		return nil
	})

	restored := 0
	var collected []*liteworp.Results
	if err := Run(jobs, Options{Workers: 1, Checkpoint: path,
		OnProgress: func(done, _ int, fromCheckpoint bool) {
			if fromCheckpoint {
				restored = done
			}
		}}, func(_ int, _ Job, r *liteworp.Results) error {
		collected = append(collected, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if restored != 1 || !reflect.DeepEqual(built, []int64{701, 702}) {
		t.Errorf("resume restored %d and built seeds %v, want the ok entry restored and exactly the failed [701 702] re-run", restored, built)
	}
	if len(collected) != len(jobs) || !reflect.DeepEqual(collected[0], res0) {
		t.Error("the restored success does not match the result it was written from")
	}

	if err := os.WriteFile(path, []byte(parent), 0o644); err != nil {
		t.Fatal(err)
	}
	full := runAggregates(t, jobs, Options{Workers: 2, Checkpoint: path})
	if base := runAggregates(t, jobs, Options{Workers: 1}); !reflect.DeepEqual(base, full) {
		t.Fatal("resume of a parent checkpoint diverged from a clean run")
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
	if len(notices()) != 0 {
		t.Errorf("unexpected quarantine notices: %+v", notices())
	}
}
