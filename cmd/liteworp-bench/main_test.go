package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunWritesJSONFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.json")
	if err := run([]string{"-nsweep", "-ns", "20", "-o", out}, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var sweep Sweep
	if err := json.Unmarshal(data, &sweep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if sweep.Benchmark != "NSweep" || len(sweep.Records) != 1 || sweep.Records[0].Nodes != 20 {
		t.Fatalf("unexpected record: %+v", sweep)
	}
	if rec := sweep.Records[0]; rec.Events == 0 || rec.EventsPerSec <= 0 {
		t.Fatalf("implausible point: %+v", rec)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(nil, nil); err == nil {
		t.Fatal("run without -nsweep accepted")
	}
	if err := run([]string{"-nsweep", "-ns", "1"}, nil); err == nil {
		t.Fatal("a one-node sweep point accepted")
	}
}

// TestSweepAttackStartsInsideHorizon: every default sweep point must switch
// the wormhole on before its horizon ends, or the sweep measures a network
// with no attack running.
func TestSweepAttackStartsInsideHorizon(t *testing.T) {
	ns, err := parseInts(defaultNs)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		p := sweepParams(n, 1)
		if p.AttackStart <= 0 || p.AttackStart >= p.Duration {
			t.Errorf("N=%d: AttackStart %v not inside the %v horizon", n, p.AttackStart, p.Duration)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("N=%d: sweep params invalid: %v", n, err)
		}
	}
}
