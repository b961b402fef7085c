package metrics

import (
	"math"
	"testing"
	"time"

	"liteworp/internal/field"
)

func TestTimeSeriesRecordAndAt(t *testing.T) {
	var ts TimeSeries
	if ts.At(time.Second) != 0 {
		t.Fatal("empty series should read 0")
	}
	ts.Record(1*time.Second, 1)
	ts.Record(3*time.Second, 5)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 0},
		{999 * time.Millisecond, 0},
		{1 * time.Second, 1},
		{2 * time.Second, 1},
		{3 * time.Second, 5},
		{10 * time.Second, 5},
	}
	for _, c := range cases {
		if got := ts.At(c.at); got != c.want {
			t.Fatalf("At(%v) = %g, want %g", c.at, got, c.want)
		}
	}
	if ts.Len() != 2 {
		t.Fatalf("Len = %d", ts.Len())
	}
	if got := ts.Samples(); len(got) != 2 || got[1].Value != 5 {
		t.Fatalf("Samples = %v", got)
	}
}

func TestTimeSeriesBucketize(t *testing.T) {
	var ts TimeSeries
	ts.Record(500*time.Millisecond, 1)
	ts.Record(1500*time.Millisecond, 2)
	got := ts.Bucketize(time.Second, 3*time.Second)
	if len(got) != 3 {
		t.Fatalf("buckets = %v", got)
	}
	want := []float64{1, 2, 2}
	for i := range want {
		if got[i].Value != want[i] {
			t.Fatalf("bucket %d = %v, want %g", i, got[i], want[i])
		}
	}
	if ts.Bucketize(0, time.Second) != nil {
		t.Fatal("degenerate step accepted")
	}
}

// Summarize is the two-pass oracle MeanVar is checked against: it computes
// mean/std/min/max over xs (population std) plus the 95% confidence
// half-width of the mean from the whole slice at once.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.HasValues = true
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, x := range xs {
		s.Total += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Total / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(xs)))
	if len(xs) > 1 {
		s.CI95 = 1.96 * math.Sqrt(ss/float64(len(xs)-1)/float64(len(xs)))
	}
	return s
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || math.Abs(s.Mean-5) > 1e-12 || math.Abs(s.Std-2) > 1e-12 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Min != 2 || s.Max != 9 || s.Total != 40 {
		t.Fatalf("summary = %+v", s)
	}
	empty := Summarize(nil)
	if empty.HasValues || empty.N != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestMeanVarMatchesSummarize(t *testing.T) {
	xs := []float64{0.25, 0.5, 0.125, 0.75, 1.5, 0.0625}
	var mv MeanVar
	for _, x := range xs {
		mv.Add(x)
	}
	got, want := mv.Summary(), Summarize(xs)
	if got.N != want.N || got.HasValues != want.HasValues {
		t.Fatalf("N/HasValues mismatch: %+v vs %+v", got, want)
	}
	if got.Min != want.Min || got.Max != want.Max || got.Total != want.Total {
		t.Fatalf("Min/Max/Total mismatch: %+v vs %+v", got, want)
	}
	for _, f := range []struct {
		name     string
		got, wnt float64
	}{{"Mean", got.Mean, want.Mean}, {"Std", got.Std, want.Std}, {"CI95", got.CI95, want.CI95}} {
		if math.Abs(f.got-f.wnt) > 1e-12 {
			t.Errorf("%s: online %g vs batch %g", f.name, f.got, f.wnt)
		}
	}
}

func TestMeanVarCI95(t *testing.T) {
	// Four values with mean 5, sample std 2: CI95 = 1.96*2/sqrt(4) = 1.96.
	var mv MeanVar
	for _, x := range []float64{3, 4, 6, 7} {
		mv.Add(x)
	}
	s := mv.Summary()
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("mean = %g", s.Mean)
	}
	want := 1.96 * math.Sqrt(10.0/3.0) / 2
	if math.Abs(s.CI95-want) > 1e-12 {
		t.Fatalf("CI95 = %g, want %g", s.CI95, want)
	}
}

func TestMeanVarDegenerate(t *testing.T) {
	var mv MeanVar
	if s := mv.Summary(); s.HasValues || s.N != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	mv.Add(2.5)
	s := mv.Summary()
	if !s.HasValues || s.N != 1 || s.Mean != 2.5 || s.Min != 2.5 || s.Max != 2.5 {
		t.Fatalf("single-value summary = %+v", s)
	}
	if s.Std != 0 || s.CI95 != 0 {
		t.Fatalf("single value has spread: %+v", s)
	}
}

func TestCollectorDropsAndFractions(t *testing.T) {
	c := NewCollector()
	c.DataOriginated = 100
	c.DataDelivered = 80
	for i := 1; i <= 10; i++ {
		c.RecordDrop(time.Duration(i) * time.Second)
	}
	if c.DataDroppedAttack != 10 {
		t.Fatalf("DataDroppedAttack = %d", c.DataDroppedAttack)
	}
	if got := c.FractionDropped(); got != 0.1 {
		t.Fatalf("FractionDropped = %g", got)
	}
	if got := c.DeliveryRatio(); got != 0.8 {
		t.Fatalf("DeliveryRatio = %g", got)
	}
	if got := c.CumulativeDropped.At(5 * time.Second); got != 5 {
		t.Fatalf("cumulative at 5s = %g", got)
	}
	c.RoutesEstablished = 20
	c.WormholeRoutes = 5
	if got := c.FractionMaliciousRoutes(); got != 0.25 {
		t.Fatalf("FractionMaliciousRoutes = %g", got)
	}
}

func TestCollectorZeroDenominators(t *testing.T) {
	c := NewCollector()
	if c.FractionDropped() != 0 || c.FractionMaliciousRoutes() != 0 || c.DeliveryRatio() != 0 {
		t.Fatal("zero-denominator fractions should be 0")
	}
}

func TestIsolationLatency(t *testing.T) {
	c := NewCollector()
	c.AttackStart = 50 * time.Second
	c.RecordIsolation(1, 99, 60*time.Second)
	c.RecordIsolation(2, 99, 75*time.Second)

	// Not all required observers have isolated yet.
	if _, ok := c.IsolationLatency(99, []field.NodeID{1, 2, 3}); ok {
		t.Fatal("latency reported before full isolation")
	}
	c.RecordIsolation(3, 99, 70*time.Second)
	lat, ok := c.IsolationLatency(99, []field.NodeID{1, 2, 3})
	if !ok || lat != 25*time.Second {
		t.Fatalf("latency = %v,%v want 25s", lat, ok)
	}
	// Duplicate isolation from the same observer keeps the first time.
	c.RecordIsolation(2, 99, 90*time.Second)
	lat, ok = c.IsolationLatency(99, []field.NodeID{1, 2, 3})
	if !ok || lat != 25*time.Second {
		t.Fatalf("latency after duplicate = %v", lat)
	}
	m := c.IsolatedBy(99)
	if len(m) != 3 || m[2] != 75*time.Second {
		t.Fatalf("IsolatedBy = %v", m)
	}
}

func TestIsolationLatencyNoObservers(t *testing.T) {
	c := NewCollector()
	if _, ok := c.IsolationLatency(5, nil); ok {
		t.Fatal("latency for unknown accused reported")
	}
}

func TestIsolationBeforeAttackStartClampsToZero(t *testing.T) {
	c := NewCollector()
	c.AttackStart = 100 * time.Second
	c.RecordIsolation(1, 9, 40*time.Second)
	lat, ok := c.IsolationLatency(9, []field.NodeID{1})
	if !ok || lat != 0 {
		t.Fatalf("latency = %v,%v want 0,true", lat, ok)
	}
}
