package campaign

import "time"

// The aggregation layer turns the per-run results the engine streams out
// into the quantities the paper's figures report (per-value statistics
// fold through metrics.MeanVar). Everything here is a plain streaming
// accumulator: feed order is the only thing that matters,
// and the engine guarantees feed order is job order, so aggregates are
// bitwise reproducible for any worker count.

// Curve averages bucketized time series across runs — the Figure 8
// cumulative-drop merge. Each Add samples one run at every bucket offset
// and accumulates the per-bucket sums; Means divides by the number of
// runs added.
type Curve struct {
	times []time.Duration
	sums  []float64
	n     int
}

// NewCurve allocates buckets at multiples of step in (0, until].
func NewCurve(step, until time.Duration) *Curve {
	c := &Curve{}
	if step <= 0 || until <= 0 {
		return c
	}
	nSteps := int(until / step)
	c.times = make([]time.Duration, nSteps)
	c.sums = make([]float64, nSteps)
	for i := 0; i < nSteps; i++ {
		c.times[i] = time.Duration(i+1) * step
	}
	return c
}

// Add samples one run's series; sample receives each bucket's offset from
// the run's own origin (e.g. its operational start) and returns the
// cumulative value there.
func (c *Curve) Add(sample func(offset time.Duration) float64) {
	c.n++
	for i, t := range c.times {
		c.sums[i] += sample(t)
	}
}

// N returns how many runs were added.
func (c *Curve) N() int { return c.n }

// Times returns a copy of the bucket offsets.
func (c *Curve) Times() []time.Duration {
	out := make([]time.Duration, len(c.times))
	copy(out, c.times)
	return out
}

// Means returns the per-bucket mean over the added runs (zeros before any
// run was added).
func (c *Curve) Means() []float64 {
	out := make([]float64, len(c.sums))
	if c.n == 0 {
		return out
	}
	for i, s := range c.sums {
		out[i] = s / float64(c.n)
	}
	return out
}
