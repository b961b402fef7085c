package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunAnalyticOnly(t *testing.T) {
	// The analytic experiments are instant; exercise selection, dedup of
	// the F6 pair, and rendering.
	if err := run([]string{"-only", "T1,T2,F5,F6a,F6b,C1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithPlots(t *testing.T) {
	if err := run([]string{"-only", "F6A", "-plot"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownScale(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRunsOverride(t *testing.T) {
	// A single tiny simulated experiment with runs=1 stays fast.
	if err := run([]string{"-only", "T1", "-runs", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownOnly(t *testing.T) {
	err := run([]string{"-only", "F8,BOGUS,nope"})
	if err == nil {
		t.Fatal("unknown experiment IDs accepted silently")
	}
	msg := err.Error()
	for _, want := range []string{"BOGUS", "NOPE", "valid IDs", "F8", "C1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestRunRejectsEmptyOnlySelection(t *testing.T) {
	if err := run([]string{"-only", " , ,"}); err == nil {
		t.Fatal("an -only value selecting nothing should error, not run nothing")
	}
}

func TestRunJSONOutput(t *testing.T) {
	if err := run([]string{"-only", "T1,C1", "-json"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelWithCheckpoint(t *testing.T) {
	// One small simulated figure through the campaign path: all cores,
	// checkpoint directory created and populated, then a resumed rerun
	// that restores every seed from the checkpoint.
	dir := t.TempDir()
	args := []string{"-only", "F10", "-runs", "1", "-parallel", "0", "-checkpoint", dir}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "f10.json")
	info, err := os.Stat(ckpt)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("checkpoint empty")
	}
	if err := run(args); err != nil {
		t.Fatalf("resume from checkpoint: %v", err)
	}
}
