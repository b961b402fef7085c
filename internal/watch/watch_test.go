package watch

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

func key(origin field.NodeID, seq uint64) packet.Key {
	return packet.Key{Type: packet.TypeRouteReply, Origin: origin, Seq: seq}
}

// fixture completes a test's partial configuration for one buffer: the
// fields it leaves zero take the paper's Table 2 values, and the buffer
// gets a neighbor index and a reception log of its own and a drop filter
// that suppresses nothing.
func fixture(k *sim.Kernel, cfg Config) Config {
	if cfg.Timeout == 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	if cfg.FabricationIncrement == 0 {
		cfg.FabricationIncrement = 3
	}
	if cfg.DropIncrement == 0 {
		cfg.DropIncrement = 1
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 16
	}
	if cfg.Window == 0 {
		cfg.Window = 200 * time.Second
	}
	if cfg.DropFilter == nil {
		cfg.DropFilter = func(field.NodeID, packet.Key) bool { return false }
	}
	if cfg.Index == nil {
		cfg.Index = neighbor.NewIndex()
	}
	if cfg.Log == nil {
		cfg.Log = NewLog(k)
	}
	return cfg
}

// heardID asks b whether it heard id send k, as a caller that holds no
// index for id would: an ID never interned was never recorded.
func heardID(b *Buffer, id field.NodeID, k packet.Key) bool {
	sidx, ok := b.Index().Lookup(id)
	return ok && b.HeardIdx(sidx, k)
}

// noAccuse and noThreshold are the hooks of a buffer whose accusations a
// test does not read.
func noAccuse(Accusation)      {}
func noThreshold(field.NodeID) {}

func newBuffer(k *sim.Kernel, cfg Config) (*Buffer, *[]Accusation, *[]field.NodeID) {
	var acc []Accusation
	var thr []field.NodeID
	b := New(k, fixture(k, cfg),
		func(a Accusation) { acc = append(acc, a) },
		func(id field.NodeID) { thr = append(thr, id) })
	return b, &acc, &thr
}

func TestExpectThenForwardMatches(t *testing.T) {
	k := sim.New(1)
	b, acc, _ := newBuffer(k, Config{Timeout: time.Second})
	if !b.Expect(5, key(1, 1)) {
		t.Fatal("Expect returned false")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d", b.Len())
	}
	k.RunFor(200 * time.Millisecond)
	if !b.RecordHeard(5, key(1, 1)) {
		t.Fatal("RecordHeard of the forward found no pending entry")
	}
	if b.Len() != 0 {
		t.Fatalf("Len after match = %d", b.Len())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*acc) != 0 {
		t.Fatalf("accusations after clean forward: %v", *acc)
	}
	st := b.Stats()
	if st.Matches != 1 || st.Drops != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExpectTimeoutAccusesDrop(t *testing.T) {
	k := sim.New(1)
	b, acc, _ := newBuffer(k, Config{Timeout: time.Second, DropIncrement: 1, Threshold: 100})
	b.Expect(5, key(1, 1))
	// Bounded run: a full drain would ride the MalC-pruning sweep past the
	// 200s window and legitimately zero the counter again.
	if err := k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(*acc) != 1 {
		t.Fatalf("accusations = %v", *acc)
	}
	a := (*acc)[0]
	if a.Accused != 5 || a.Reason != ReasonDrop || a.MalC != 1 {
		t.Fatalf("accusation = %+v", a)
	}
	if b.Len() != 0 {
		t.Fatal("expired entry still pending")
	}
	if b.MalC(5) != 1 {
		t.Fatalf("MalC = %d", b.MalC(5))
	}
}

func TestLateForwardAfterTimeoutDoesNotMatch(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: time.Second})
	b.Expect(5, key(1, 1))
	k.RunFor(2 * time.Second)
	if b.RecordHeard(5, key(1, 1)) {
		t.Fatal("forward matched after deadline")
	}
	if b.Stats().Drops != 1 {
		t.Fatalf("drops = %d", b.Stats().Drops)
	}
}

func TestDuplicateExpectIsNoop(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: time.Second})
	if !b.Expect(5, key(1, 1)) {
		t.Fatal("first Expect false")
	}
	if b.Expect(5, key(1, 1)) {
		t.Fatal("duplicate Expect true")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// One entry -> exactly one drop accusation.
	if b.Stats().Drops != 1 {
		t.Fatalf("drops = %d, want 1", b.Stats().Drops)
	}
}

func TestForwardedSuppressesReExpect(t *testing.T) {
	// A flooded REQ: forwarder forwards once; later duplicate copies must
	// not re-arm an expectation that would then falsely expire. The heard
	// record of the forward is the suppression: there is no separate
	// forwarded cache.
	k := sim.New(1)
	b, acc, _ := newBuffer(k, Config{Timeout: time.Second})
	b.Expect(5, key(1, 1))
	if !b.RecordHeard(5, key(1, 1)) {
		t.Fatal("overheard forward did not satisfy the expectation")
	}
	if n := b.store.(*logStore).log.entries.Len(); n != 1 {
		t.Fatalf("the log holds %d entries after one forward, want 1", n)
	}
	if b.Expect(5, key(1, 1)) {
		t.Fatal("Expect re-armed after forward")
	}
	// A copy heard only from another sender suppresses nothing on 5.
	b.RecordHeard(6, key(1, 2))
	if !b.Expect(5, key(1, 2)) {
		t.Fatal("a different sender's transmission suppressed the expectation on 5")
	}
	b.RecordHeard(5, key(1, 2))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*acc) != 0 {
		t.Fatalf("accusations = %v", *acc)
	}
}

func TestForwardedSuppressionExpires(t *testing.T) {
	k := sim.New(1)
	cfg := Config{Timeout: 100 * time.Millisecond}
	b, _, _ := newBuffer(k, cfg)
	b.Expect(5, key(1, 1))
	b.RecordHeard(5, key(1, 1))
	k.RunFor(2 * time.Second)
	if !b.Expect(5, key(1, 1)) {
		t.Fatal("suppression did not expire after ten tau")
	}
}

func TestFabricationAccusation(t *testing.T) {
	k := sim.New(1)
	b, acc, thr := newBuffer(k, Config{FabricationIncrement: 2, Threshold: 4})
	b.AccuseFabrication(9, key(2, 7))
	if len(*acc) != 1 || (*acc)[0].Reason != ReasonFabrication || (*acc)[0].MalC != 2 {
		t.Fatalf("accusations = %v", *acc)
	}
	if len(*thr) != 0 {
		t.Fatal("threshold fired too early")
	}
	b.AccuseFabrication(9, key(2, 8))
	if len(*thr) != 1 || (*thr)[0] != 9 {
		t.Fatalf("threshold events = %v", *thr)
	}
	if !b.ThresholdFired(9) {
		t.Fatal("ThresholdFired false")
	}
	// Threshold fires only once.
	b.AccuseFabrication(9, key(2, 9))
	if len(*thr) != 1 {
		t.Fatalf("threshold fired again: %v", *thr)
	}
	if b.Stats().ThresholdHits != 1 {
		t.Fatalf("ThresholdHits = %d", b.Stats().ThresholdHits)
	}
}

func TestMalCMixedIncrements(t *testing.T) {
	k := sim.New(1)
	b, _, thr := newBuffer(k, Config{Timeout: 10 * time.Millisecond, FabricationIncrement: 2, DropIncrement: 1, Threshold: 5})
	b.AccuseFabrication(7, key(1, 1)) // 2
	b.Expect(7, key(1, 2))
	k.RunFor(20 * time.Millisecond) // drop -> 3
	if b.MalC(7) != 3 {
		t.Fatalf("MalC = %d, want 3", b.MalC(7))
	}
	b.AccuseFabrication(7, key(1, 3)) // 5 -> threshold
	if len(*thr) != 1 {
		t.Fatal("threshold not reached at 5")
	}
}

func TestMalCWindowExpires(t *testing.T) {
	k := sim.New(1)
	b, _, thr := newBuffer(k, Config{FabricationIncrement: 2, Threshold: 4, Window: 10 * time.Second})
	b.AccuseFabrication(7, key(1, 1))
	if b.MalC(7) != 2 {
		t.Fatalf("MalC = %d", b.MalC(7))
	}
	k.RunFor(11 * time.Second)
	if b.MalC(7) != 0 {
		t.Fatalf("MalC after window = %d, want 0", b.MalC(7))
	}
	// A fresh accusation counts from scratch: 2 < 4, no threshold.
	b.AccuseFabrication(7, key(1, 2))
	if len(*thr) != 0 {
		t.Fatal("stale observations contributed to threshold")
	}
}

func TestHeardCache(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond})
	if heardID(b, 3, key(1, 1)) {
		t.Fatal("Heard true before RecordHeard")
	}
	b.RecordHeard(3, key(1, 1))
	if !heardID(b, 3, key(1, 1)) {
		t.Fatal("Heard false after RecordHeard")
	}
	k.RunFor(2 * time.Second)
	if heardID(b, 3, key(1, 1)) {
		t.Fatal("Heard true after TTL")
	}
}

func TestHeardCacheRefresh(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond})
	b.RecordHeard(3, key(1, 1))
	k.RunFor(800 * time.Millisecond)
	b.RecordHeard(3, key(1, 1)) // refresh
	k.RunFor(900 * time.Millisecond)
	if !heardID(b, 3, key(1, 1)) {
		t.Fatal("refreshed record expired early")
	}
}

func TestMemoryBytesMatchesPaperEntrySize(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: time.Hour})
	for i := uint64(0); i < 4; i++ {
		b.Expect(5, key(1, i))
	}
	if got := b.MemoryBytes(); got != 4*EntryBytes {
		t.Fatalf("MemoryBytes = %d, want %d", got, 4*EntryBytes)
	}
	// Paper example: a 4-entry watch buffer is 80 bytes.
	if 4*EntryBytes != 80 {
		t.Fatal("paper example size mismatch")
	}
}

func TestPeakEntriesTracksHighWater(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: time.Second})
	for i := uint64(0); i < 10; i++ {
		b.Expect(5, key(1, i))
	}
	for i := uint64(0); i < 10; i++ {
		b.RecordHeard(5, key(1, i))
	}
	if b.Stats().PeakEntries != 10 {
		t.Fatalf("PeakEntries = %d", b.Stats().PeakEntries)
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d", b.Len())
	}
}

// TestWatchHoldsOneKernelTimer: whatever a buffer on a scope arms, matches
// or lets expire, it holds exactly one pending kernel timer while it has an
// outstanding expectation and none otherwise.
func TestWatchHoldsOneKernelTimer(t *testing.T) {
	k := sim.New(7)
	s := sim.NewScope(k)
	const tau = 40 * time.Millisecond
	b := New(s, fixture(k, Config{Timeout: tau, Threshold: 1 << 30}), noAccuse, noThreshold)
	rng := k.Rand()
	check := func(op int) {
		t.Helper()
		want := 0
		if b.Len() > 0 {
			want = 1
		}
		if got := s.Pending(); got != want {
			t.Fatalf("op %d: scope holds %d timers with %d outstanding expectations, want %d",
				op, got, b.Len(), want)
		}
	}
	for op := 0; op < 3000; op++ {
		fwd, kk := field.NodeID(rng.Intn(6)), key(1, uint64(rng.Intn(40)))
		switch rng.Intn(4) {
		case 0, 1:
			b.Expect(fwd, kk)
		case 2:
			b.RecordHeard(fwd, kk)
		case 3:
			if err := k.RunFor(time.Duration(rng.Intn(30)) * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		check(op)
	}
	if st := b.Stats(); st.Matches == 0 || st.Drops == 0 || st.PeakEntries < 2 {
		t.Fatalf("script did not match, drop and overlap expectations: %+v", st)
	}
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	check(-1)
}

// TestWatchDropsInArmingOrderAcrossBuffers: two buffers on one clock arm
// expectations at the same instant, interleaved, and the first buffer's
// oldest one is then matched, so its timer is re-armed for its next entry.
// The drops must still be accused in arming order, each at armedAt+tau: a
// re-armed timer fires at the sequence number its entry reserved, not at
// one taken when it was re-armed.
func TestWatchDropsInArmingOrderAcrossBuffers(t *testing.T) {
	k := sim.New(1)
	const tau = 300 * time.Millisecond
	var got []packet.Key
	var at []time.Duration
	onAccuse := func(a Accusation) {
		got = append(got, a.Key)
		at = append(at, a.At)
	}
	cfg := Config{Timeout: tau, Threshold: 100}
	b1 := New(k, fixture(k, cfg), onAccuse, noThreshold)
	b2 := New(k, fixture(k, cfg), onAccuse, noThreshold)
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	b1.Expect(5, key(1, 1))
	b1.Expect(6, key(1, 2))
	b2.Expect(7, key(1, 3))
	b1.Expect(8, key(1, 4))
	b2.Expect(9, key(1, 5))
	if err := k.RunFor(tau / 2); err != nil {
		t.Fatal(err)
	}
	b1.RecordHeard(5, key(1, 1)) // b1's head: its timer moves to key 2
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	want := []packet.Key{key(1, 2), key(1, 3), key(1, 4), key(1, 5)}
	if len(got) != len(want) {
		t.Fatalf("accused %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] || at[i] != time.Second+tau {
			t.Fatalf("drop %d: %v at %v, want %v at %v (all: %v)",
				i, got[i], at[i], want[i], time.Second+tau, got)
		}
	}
}

func TestReasonString(t *testing.T) {
	if ReasonFabrication.String() != "fabrication" || ReasonDrop.String() != "drop" {
		t.Fatal("reason names")
	}
	if Reason(0).String() != "unknown" {
		t.Fatal("unknown reason name")
	}
}

// Conservation property: every expectation is resolved exactly once —
// either matched or dropped, never both, never neither — and each drop is
// accused at exactly its deadline. A model independent of the store lists
// every expectation as it is armed and marks it met when its forward is
// due strictly before the deadline (a forward due at the deadline itself
// was scheduled after the deadline reserved its sequence number, so it
// runs second). The
// drop accusations must then be the model's unmet expectations, in arming
// order, each at armedAt+tau.
func TestPropertyExpectationConservation(t *testing.T) {
	k := sim.New(99)
	const tau = 50 * time.Millisecond
	b, acc, _ := newBuffer(k, Config{Timeout: tau, Threshold: 1 << 30})
	rng := k.Rand()
	type armed struct {
		fwd     field.NodeID
		key     packet.Key
		armedAt time.Duration
		met     bool
	}
	var model []armed
	const n = 500
	for i := 0; i < n; i++ {
		i := i
		at := time.Duration(rng.Intn(1000)) * time.Millisecond
		k.At(at, func() {
			fwd, kk := field.NodeID(i%7), key(1, uint64(i))
			if !b.Expect(fwd, kk) {
				t.Errorf("Expect(%d, %v) on a fresh packet returned false", fwd, kk)
				return
			}
			model = append(model, armed{fwd: fwd, key: kk, armedAt: k.Now()})
			if rng.Float64() < 0.6 {
				// Forward after a random delay, possibly past deadline.
				delay := time.Duration(rng.Intn(100)) * time.Millisecond
				model[len(model)-1].met = delay < tau
				k.After(delay, func() { b.RecordHeard(fwd, kk) })
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	met, next := 0, 0
	for _, m := range model {
		if m.met {
			met++
			continue
		}
		if next == len(*acc) {
			t.Fatalf("no drop accused for %v on %d armed at %v", m.key, m.fwd, m.armedAt)
		}
		a := (*acc)[next]
		if a.Accused != m.fwd || a.Key != m.key || a.Reason != ReasonDrop || a.At != m.armedAt+tau {
			t.Fatalf("drop %d: accused %d for %v (%v) at %v; model says %d for %v at %v",
				next, a.Accused, a.Key, a.Reason, a.At, m.fwd, m.key, m.armedAt+tau)
		}
		next++
	}
	if next != len(*acc) {
		t.Fatalf("%d accusations, model expects %d drops", len(*acc), next)
	}
	st := b.Stats()
	if int(st.Matches) != met || int(st.Drops) != next || int(st.Expectations) != len(model) {
		t.Fatalf("stats %+v; model: %d armed, %d met, %d dropped", st, len(model), met, next)
	}
	if b.Len() != 0 {
		t.Fatalf("%d entries leaked", b.Len())
	}
}
