package watch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/sim"
)

// oracleRecord is a MalC record kept the plain way: the instant and the
// increment of each observation in parallel slices, and the instant of
// the newest one.
type oracleRecord struct {
	aidx   int32
	fired  bool
	latest time.Duration
	times  []time.Duration
	incs   []int
}

// malcOracle keeps a guard's MalC records as oracleRecords, in
// first-accused order, with the buffer's window, threshold and sweep
// rules. boundary counts the observations it counted at exactly
// now-Window.
type malcOracle struct {
	window    time.Duration
	threshold int
	recs      []oracleRecord
	boundary  int
}

func (o *malcOracle) find(aidx int32) *oracleRecord {
	for i := range o.recs {
		if o.recs[i].aidx == aidx {
			return &o.recs[i]
		}
	}
	return nil
}

// sweep drops the unfired records whose newest observation is strictly
// past the window.
func (o *malcOracle) sweep(now time.Duration) {
	o.recs = slices.DeleteFunc(o.recs, func(r oracleRecord) bool {
		return !r.fired && r.latest+o.window < now
	})
}

// value sums the observations at or after now-window, dropping the rest.
func (o *malcOracle) value(r *oracleRecord, now time.Duration) int {
	cutoff := now - o.window
	var times []time.Duration
	var incs []int
	total := 0
	for i, t := range r.times {
		if t < cutoff {
			continue
		}
		if t == cutoff {
			o.boundary++
		}
		times = append(times, t)
		incs = append(incs, r.incs[i])
		total += r.incs[i]
	}
	r.times, r.incs = times, incs
	return total
}

// accuse applies one observation and reports the windowed value and
// whether it fires the threshold.
func (o *malcOracle) accuse(aidx int32, inc int, now time.Duration) (int, bool) {
	r := o.find(aidx)
	if r == nil {
		o.sweep(now)
		o.recs = append(o.recs, oracleRecord{aidx: aidx})
		r = &o.recs[len(o.recs)-1]
	}
	r.times = append(r.times, now)
	r.incs = append(r.incs, inc)
	r.latest = now
	val := o.value(r, now)
	fire := !r.fired && val >= o.threshold
	r.fired = r.fired || fire
	return val, fire
}

func (o *malcOracle) malc(aidx int32, now time.Duration) int {
	if r := o.find(aidx); r != nil {
		return o.value(r, now)
	}
	return 0
}

// TestMalcMatchesOracle drives drops, through expiring expectations, and
// fabrications into a buffer, with V_f != V_d and with V_f = V_d, and holds
// every answer to malcOracle: each accusation's MalC, each threshold
// firing, MalC and ThresholdFired queries, and the records that survive
// each sweep, in order. Observations, deadlines and idle stretches fall on
// a 5 ms grid, so observations sit exactly at now-Window; the run must
// see such observations counted, thresholds latched and unfired records
// swept.
func TestMalcMatchesOracle(t *testing.T) {
	for _, inc := range []struct{ fab, drop int }{{3, 1}, {2, 2}} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("vf%d-vd%d-seed%d", inc.fab, inc.drop, seed), func(t *testing.T) {
				malcScript(t, seed, inc.fab, inc.drop)
			})
		}
	}
}

func malcScript(t *testing.T, seed int64, fab, drop int) {
	const grid = 5 * time.Millisecond
	rng := rand.New(rand.NewSource(seed))
	k := sim.New(seed)
	cfg := Config{
		Timeout:              2 * grid,
		Window:               30 * grid,
		Threshold:            6,
		FabricationIncrement: fab,
		DropIncrement:        drop,
	}
	o := &malcOracle{window: cfg.Window, threshold: cfg.Threshold}
	var b *Buffer
	var wantThr []field.NodeID // threshold firings the oracle expects next
	fired, swept := 0, 0
	onAccuse := func(a Accusation) {
		aidx, _ := b.Index().Lookup(a.Accused)
		inc := cfg.DropIncrement
		if a.Reason == ReasonFabrication {
			inc = cfg.FabricationIncrement
		}
		val, fire := o.accuse(aidx, inc, a.At)
		if a.MalC != val {
			t.Fatalf("accusation of %d (%v) at %v: MalC %d, oracle %d", a.Accused, a.Reason, a.At, a.MalC, val)
		}
		if fire {
			wantThr = append(wantThr, a.Accused)
		}
	}
	onThreshold := func(id field.NodeID) {
		if len(wantThr) == 0 || wantThr[0] != id {
			t.Fatalf("threshold fired for %d at %v, oracle expects %v", id, k.Now(), wantThr)
		}
		wantThr = wantThr[1:]
		fired++
	}
	b = New(k, fixture(k, cfg), onAccuse, onThreshold)
	// A few nodes are accused often enough to fire; the rest so rarely
	// that their records are swept.
	node := func() field.NodeID {
		if rng.Intn(3) == 0 {
			return field.NodeID(5 + rng.Intn(20))
		}
		return field.NodeID(1 + rng.Intn(4))
	}
	seq := uint64(0)
	for op := 0; op < 400; op++ {
		before := len(o.recs)
		switch rng.Intn(6) {
		case 0:
			b.AccuseFabrication(node(), key(1, seq))
			seq++
		case 1, 2:
			// An expectation nobody meets drops at its deadline; one in
			// four is met and never accused.
			n := node()
			b.Expect(n, key(1, seq))
			if rng.Intn(4) == 0 {
				b.RecordHeard(n, key(1, seq))
			}
			seq++
		case 3:
			k.RunFor(time.Duration(rng.Intn(12)) * grid)
		case 4:
			// An idle stretch of exactly the window, or just short of or
			// past it.
			k.RunFor(cfg.Window + time.Duration(rng.Intn(3)-1)*grid)
		case 5:
			n := node()
			aidx, ok := b.Index().Lookup(n)
			want := 0
			wantFired := false
			if ok {
				want = o.malc(aidx, k.Now())
				wantFired = o.find(aidx) != nil && o.find(aidx).fired
			}
			if got := b.MalC(n); got != want {
				t.Fatalf("op %d: MalC(%d) = %d at %v, oracle %d", op, n, got, k.Now(), want)
			}
			if got := b.ThresholdFired(n); got != wantFired {
				t.Fatalf("op %d: ThresholdFired(%d) = %v, oracle %v", op, n, got, wantFired)
			}
		}
		if len(wantThr) != 0 {
			t.Fatalf("op %d: threshold firings %v expected, not seen", op, wantThr)
		}
		if len(o.recs) < before {
			swept++
		}
		if len(b.malcs) != len(o.recs) {
			t.Fatalf("op %d: %d MalC records, oracle %d", op, len(b.malcs), len(o.recs))
		}
		for i, r := range o.recs {
			if got := b.malcs[i]; got.aidx != r.aidx || got.fired != r.fired {
				t.Fatalf("op %d: record %d is (%d, fired %v), oracle (%d, fired %v)", op, i, got.aidx, got.fired, r.aidx, r.fired)
			}
		}
	}
	if fired == 0 || swept == 0 || o.boundary == 0 {
		t.Fatalf("script too tame: %d thresholds fired, %d sweeps dropped records, %d observations at the window's edge",
			fired, swept, o.boundary)
	}
}
