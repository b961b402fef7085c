package campaign

import (
	"testing"
	"time"
)

func TestCurveAveragesRuns(t *testing.T) {
	c := NewCurve(10*time.Second, 35*time.Second)
	if got := c.Times(); len(got) != 3 || got[0] != 10*time.Second || got[2] != 30*time.Second {
		t.Fatalf("times = %v", got)
	}
	c.Add(func(off time.Duration) float64 { return off.Seconds() })     // 10, 20, 30
	c.Add(func(off time.Duration) float64 { return 2 * off.Seconds() }) // 20, 40, 60
	if c.N() != 2 {
		t.Fatalf("N = %d", c.N())
	}
	means := c.Means()
	for i, want := range []float64{15, 30, 45} {
		if means[i] != want {
			t.Fatalf("means = %v", means)
		}
	}
}

func TestCurveDegenerate(t *testing.T) {
	if c := NewCurve(0, time.Second); len(c.Times()) != 0 || len(c.Means()) != 0 {
		t.Fatal("zero step should produce no buckets")
	}
	c := NewCurve(10*time.Second, 30*time.Second)
	for _, m := range c.Means() {
		if m != 0 {
			t.Fatal("means before any run should be zero")
		}
	}
}
