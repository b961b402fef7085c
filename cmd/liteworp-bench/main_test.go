package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestMeasureProducesSaneResult(t *testing.T) {
	res, err := measure(1, 20, 5*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsPerRun == 0 {
		t.Fatal("no events processed")
	}
	if res.NsPerOp <= 0 || res.AllocsPerOp == 0 || res.EventsPerSec <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestMeasureEventCountIsDeterministic(t *testing.T) {
	a, err := measure(1, 20, 5*time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measure(1, 20, 5*time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.EventsPerRun != b.EventsPerRun {
		t.Fatalf("same seed, different event counts: %d vs %d", a.EventsPerRun, b.EventsPerRun)
	}
}

func TestRunWritesJSONFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-runs", "1", "-nodes", "20", "-duration", "5s", "-o", out}, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if res.Benchmark != "ScenarioThroughput" || res.Nodes != 20 {
		t.Fatalf("unexpected record: %+v", res)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-runs", "0"}, nil); err == nil {
		t.Fatal("zero runs accepted")
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
		p := sweepParams("", n, 1)
		if p.AttackStart <= 0 || p.AttackStart >= p.Duration {
			t.Errorf("N=%d: AttackStart %v not inside the %v horizon", n, p.AttackStart, p.Duration)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("N=%d: sweep params invalid: %v", n, err)
		}
	}
}
