package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func inDir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// TestRepoIsClean is the command-level counterpart of the CI lint job:
// the repository must produce zero findings, and the
// -json report must be byte-identical across runs — map iteration
// anywhere in the pipeline would leak randomized order into CI diffs.
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code, err := run([]string{"-json", "./..."}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	var findings []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(findings) != 0 {
		t.Fatalf("repo has %d determinism findings: %v", len(findings), findings)
	}

	var second bytes.Buffer
	if code, err := run([]string{"-json", "./..."}, &second, &stderr); err != nil || code != 0 {
		t.Fatalf("second run: exit %d, err %v", code, err)
	}
	if !bytes.Equal(stdout.Bytes(), second.Bytes()) {
		t.Error("-json output differs between runs")
	}
}

// writeViolatingModule creates a tiny module with one wallclock violation
// in an internal package.
func writeViolatingModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module badmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := filepath.Join(dir, "internal", "clocky")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package clocky

import "time"

func Bad() time.Time { return time.Now() }
`
	if err := os.WriteFile(filepath.Join(pkg, "clocky.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestViolationFails(t *testing.T) {
	dir := writeViolatingModule(t)
	inDir(t, dir)

	var stdout, stderr bytes.Buffer
	code, err := run(nil, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	want := "internal/clocky/clocky.go:5"
	if !strings.Contains(stdout.String(), want) || !strings.Contains(stdout.String(), "nondet-taint") {
		t.Fatalf("finding not reported; stdout:\n%s", stdout.String())
	}
}

func TestJSONOutputShape(t *testing.T) {
	dir := writeViolatingModule(t)
	inDir(t, dir)

	var stdout, stderr bytes.Buffer
	code, err := run([]string{"-json"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var findings []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "nondet-taint" || f.File != "internal/clocky/clocky.go" || f.Line != 5 || f.Col == 0 || f.Message == "" {
		t.Errorf("unexpected finding shape: %+v", f)
	}
}

// TestUsageErrors: an unknown flag is a usage error. -json is the only
// flag; in particular no flag accepts findings (an inline waiver is the
// one way) or regenerates a budget.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-graph"},
		{"-allowlist", "lint.allowlist"},
		{"-budget", "ALLOC_BUDGET.json"},
		{"-write-budget", "ALLOC_BUDGET.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code, _ := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
