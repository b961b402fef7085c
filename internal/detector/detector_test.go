package detector

import (
	"reflect"
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
	"liteworp/internal/watch"
)

// testEnv returns the environment the engine would give host 1 over k: an
// empty neighbor table and position oracle, a drop filter that suppresses
// nothing, no suspects, and callbacks that discard what they are given.
// Tests replace the fields they observe through.
func testEnv(k *sim.Kernel) Env {
	return Env{
		Clock:        k,
		Table:        neighbor.NewTable(1),
		Positions:    field.New(400, 60, 30),
		DropFilter:   func(field.NodeID, packet.Key) bool { return false },
		Suspect:      func(int32) bool { return false },
		OnAccusation: func(Accusation) {},
		OnThreshold:  func(field.NodeID) {},
	}
}

// anyIdx stands for the sender's nbrIdx where a strategy reads none: the
// range and null strategies judge the frame alone.
const anyIdx = -1

// testConfig returns the LITEWORP strategy at the paper's Table 2 watch
// parameters, on a reception log of its own over k.
func testConfig(k *sim.Kernel) Config {
	return Config{Kind: KindLiteworp, Watch: watch.Config{
		Timeout:              500 * time.Millisecond,
		FabricationIncrement: 3,
		DropIncrement:        1,
		Threshold:            16,
		Window:               200 * time.Second,
		Log:                  watch.NewLog(k),
	}}
}

// TestRegistry pins the fixed kind list: Names is exactly the built-ins,
// ascending, and a caller cannot change it through the returned slice.
func TestRegistry(t *testing.T) {
	want := []string{KindLiteworp, KindNone, KindRange, KindZScore}
	names := Names()
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	names[0] = "clobbered"
	if Names()[0] != KindLiteworp {
		t.Fatal("Names() exposes the kind list to its callers")
	}
	for _, kind := range want {
		if !Known(kind) {
			t.Fatalf("built-in %q not known", kind)
		}
	}
	if !Known("") {
		t.Fatal("empty kind must be known (it is the default)")
	}
	if Known("no-such-strategy") {
		t.Fatal("unknown kind reported known")
	}
	if got := Canonical(""); got != KindLiteworp {
		t.Fatalf("Canonical(\"\") = %q, want %q", got, KindLiteworp)
	}
	if _, err := New(testEnv(sim.New(1)), Config{Kind: "no-such-strategy"}); err == nil {
		t.Fatal("New accepted an unknown kind")
	}
}

func TestNewBuildsEachKind(t *testing.T) {
	k := sim.New(1)
	for _, kind := range []string{KindLiteworp, KindZScore, KindRange, KindNone} {
		cfg := testConfig(k)
		cfg.Kind = kind
		d, err := New(testEnv(k), cfg)
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		if d.Name() != kind {
			t.Fatalf("New(%q).Name() = %q", kind, d.Name())
		}
	}
}

func TestLiteworpDetectorExposesBuffer(t *testing.T) {
	k := sim.New(1)
	d, err := New(testEnv(k), testConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := d.(interface{ Buffer() *watch.Buffer })
	if !ok || b.Buffer() == nil {
		t.Fatal("liteworp detector must expose its watch buffer")
	}
}

// zscoreEnv wires a zscore detector with captured accusations/thresholds.
func zscoreEnv(t *testing.T) (Detector, *[]Accusation, *[]field.NodeID) {
	t.Helper()
	var acc []Accusation
	var fired []field.NodeID
	env := testEnv(sim.New(1))
	env.OnAccusation = func(a Accusation) { acc = append(acc, a) }
	env.OnThreshold = func(id field.NodeID) { fired = append(fired, id) }
	d, err := New(env, Config{Kind: KindZScore})
	if err != nil {
		t.Fatal(err)
	}
	return d, &acc, &fired
}

func TestZScoreFlagsInflatedAnnouncement(t *testing.T) {
	d, acc, fired := zscoreEnv(t)
	// Ten honest announcers with slightly varying degrees...
	degrees := []int{7, 8, 9, 8, 7, 9, 8, 8, 7, 9}
	for i, deg := range degrees {
		d.Announcement(field.NodeID(i+1), deg)
	}
	if len(*acc) != 0 {
		t.Fatalf("honest population accused: %v", *acc)
	}
	// ...then a wormhole endpoint announcing a tunnel-inflated table.
	d.Announcement(99, 40)
	if len(*acc) != 1 || (*acc)[0].Accused != 99 || (*acc)[0].Reason != watch.ReasonAnomaly {
		t.Fatalf("accusations = %v, want one anomaly against 99", *acc)
	}
	if len(*fired) != 1 || (*fired)[0] != 99 {
		t.Fatalf("threshold fired for %v, want [99]", *fired)
	}
	// A repeat anomaly re-accuses but does not re-fire the threshold.
	d.Announcement(99, 41)
	if len(*acc) != 2 || len(*fired) != 1 {
		t.Fatalf("repeat anomaly: %d accusations, %d threshold firings", len(*acc), len(*fired))
	}
}

func TestZScoreWaitsForPopulation(t *testing.T) {
	d, acc, _ := zscoreEnv(t)
	for i := 1; i <= 6; i++ {
		d.Announcement(field.NodeID(i), 8)
	}
	d.Announcement(7, 40) // seventh announcer: still below zscoreMinPeers
	if len(*acc) != 0 {
		t.Fatalf("accused before zscoreMinPeers announcers were heard: %v", *acc)
	}
}

func TestZScoreReannouncementReplacesSample(t *testing.T) {
	d, acc, _ := zscoreEnv(t)
	for i, deg := range []int{8, 7, 9, 8, 8, 7, 9, 8, 7} {
		d.Announcement(field.NodeID(i+1), deg)
	}
	// Node 2 re-announces a normal degree repeatedly (dynamic join churn):
	// its sample must be replaced, not accumulated into a skewed population.
	for i := 0; i < 10; i++ {
		d.Announcement(2, 8)
	}
	if len(*acc) != 0 {
		t.Fatalf("re-announcement skewed the population: %v", *acc)
	}
}

// rangeWorld builds a grid line of honest nodes 20 m apart (range 30 m)
// with a planted wormhole: entrance node 2 at one end, exit node 9 at the
// other, far beyond radio range of each other.
func rangeWorld(t *testing.T) *field.Field {
	t.Helper()
	f := field.New(400, 60, 30)
	for i := 1; i <= 10; i++ {
		if err := f.Place(field.NodeID(i), field.Point{X: float64(i * 20), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func rangeEnv(t *testing.T, f *field.Field) (Detector, *[]Accusation, *[]field.NodeID) {
	t.Helper()
	var acc []Accusation
	var fired []field.NodeID
	env := testEnv(sim.New(1))
	env.Positions = f
	env.OnAccusation = func(a Accusation) { acc = append(acc, a) }
	env.OnThreshold = func(id field.NodeID) { fired = append(fired, id) }
	d, err := New(env, Config{Kind: KindRange})
	if err != nil {
		t.Fatal(err)
	}
	return d, &acc, &fired
}

func TestRangeCatchesTunnelExitRouteTail(t *testing.T) {
	f := rangeWorld(t)
	d, acc, fired := rangeEnv(t, f)
	// Exit 9 re-injects a tunneled REQ: the accumulated route ends with
	// the impossible pair (entrance 2, exit 9), 140 m apart, even though
	// the forged previous hop (8) is a plausible local neighbor.
	tunneled := &packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 1, FinalDest: 10,
		Sender: 9, PrevHop: 8, Receiver: packet.Broadcast,
		Route: []field.NodeID{1, 2, 9},
	}
	d.Overheard(tunneled, anyIdx)
	if len(*acc) != 1 || (*acc)[0].Accused != 9 || (*acc)[0].Reason != watch.ReasonRange {
		t.Fatalf("accusations = %v, want one range violation against 9", *acc)
	}
	if len(*fired) != 0 {
		t.Fatal("threshold fired at the first violation")
	}
	// The next flood repeats the violation and crosses the threshold.
	second := tunneled.Clone()
	second.Seq = 2
	d.Overheard(second, anyIdx)
	if len(*fired) != 1 || (*fired)[0] != 9 {
		t.Fatalf("threshold fired for %v, want [9]", *fired)
	}
}

func TestRangeCatchesColluderPrevHopClaim(t *testing.T) {
	f := rangeWorld(t)
	d, acc, _ := rangeEnv(t, f)
	// Exit 9 names its remote colluder 2 as previous hop: an impossible
	// forwarding link.
	d.Overheard(&packet.Packet{
		Type: packet.TypeRouteReply, Seq: 3, Origin: 1, FinalDest: 1,
		Sender: 9, PrevHop: 2, Receiver: 8, Route: []field.NodeID{1, 2, 9, 10},
	}, anyIdx)
	if len(*acc) != 1 || (*acc)[0].Accused != 9 {
		t.Fatalf("accusations = %v, want one against 9", *acc)
	}
}

func TestRangeSparesHonestRebroadcasters(t *testing.T) {
	f := rangeWorld(t)
	d, acc, _ := rangeEnv(t, f)
	// Honest node 10 rebroadcasts the tainted flood: the impossible pair
	// (2, 9) sits upstream in the route, but 10's own adjacent pairs
	// (9–10 and 10's successor, none) are real links.
	d.Overheard(&packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 1, FinalDest: 42,
		Sender: 10, PrevHop: 9, Receiver: packet.Broadcast,
		Route: []field.NodeID{1, 2, 9, 10},
	}, anyIdx)
	if len(*acc) != 0 {
		t.Fatalf("honest rebroadcaster accused: %v", *acc)
	}
}

// TestRangeWithoutPositionsNeverAccuses: an oracle that knows no node's
// position judges no link, however far apart the claim's endpoints are.
func TestRangeWithoutPositionsNeverAccuses(t *testing.T) {
	d, acc, _ := rangeEnv(t, field.New(400, 60, 30))
	d.Overheard(&packet.Packet{
		Type: packet.TypeRouteRequest, Seq: 1, Origin: 1, FinalDest: 42,
		Sender: 9, PrevHop: 2, Receiver: packet.Broadcast,
		Route: []field.NodeID{1, 2, 9},
	}, anyIdx)
	if len(*acc) != 0 {
		t.Fatalf("accused without a position oracle: %v", *acc)
	}
}

func TestRangeUnknownPositionGivesBenefitOfDoubt(t *testing.T) {
	f := rangeWorld(t)
	d, acc, _ := rangeEnv(t, f)
	// Node 77 was never placed; links involving it are unjudgeable.
	d.Overheard(&packet.Packet{
		Type: packet.TypeRouteReply, Seq: 4, Origin: 1, FinalDest: 1,
		Sender: 9, PrevHop: 77, Receiver: 8,
	}, anyIdx)
	if len(*acc) != 0 {
		t.Fatalf("accused on an unjudgeable link: %v", *acc)
	}
}

func TestNoneDetectorIsInert(t *testing.T) {
	var acc []Accusation
	env := testEnv(sim.New(1))
	env.OnAccusation = func(a Accusation) { acc = append(acc, a) }
	d, err := New(env, Config{Kind: KindNone})
	if err != nil {
		t.Fatal(err)
	}
	d.OwnSend(&packet.Packet{Type: packet.TypeRouteRequest, Seq: 1, Sender: 1})
	d.Overheard(&packet.Packet{Type: packet.TypeRouteRequest, Seq: 1, Sender: 2, PrevHop: 2}, anyIdx)
	d.Announcement(2, 999)
	d.Interference()
	if len(acc) != 0 {
		t.Fatalf("null detector accused: %v", acc)
	}
}

func TestRepNextHop(t *testing.T) {
	p := &packet.Packet{Route: []field.NodeID{1, 2, 3, 4}}
	if next, ok := repNextHop(p, 3); !ok || next != 2 {
		t.Fatalf("repNextHop(3) = %d,%v", next, ok)
	}
	if _, ok := repNextHop(p, 1); ok {
		t.Fatal("source has no next hop")
	}
	if _, ok := repNextHop(p, 99); ok {
		t.Fatal("node not on route has a next hop")
	}
}
