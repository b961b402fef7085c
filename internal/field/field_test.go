package field

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, 0}, Point{1, 0}, 2},
	}
	for _, c := range cases {
		if got := Dist(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestPlaceAndPosition(t *testing.T) {
	f := New(100, 100, 30)
	if err := f.Place(1, Point{10, 10}); err != nil {
		t.Fatal(err)
	}
	p, ok := f.Position(1)
	if !ok || p != (Point{10, 10}) {
		t.Fatalf("Position(1) = %v,%v", p, ok)
	}
	if _, ok := f.Position(2); ok {
		t.Fatal("Position of absent node returned ok")
	}
	// Moving a node keeps Len stable.
	if err := f.Place(1, Point{20, 20}); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d after move, want 1", f.Len())
	}
}

func TestPlaceBroadcastRejected(t *testing.T) {
	f := New(100, 100, 30)
	if err := f.Place(Broadcast, Point{}); err == nil {
		t.Fatal("placing broadcast ID succeeded")
	}
}

func TestInRangeSymmetricAndExcludesSelf(t *testing.T) {
	f := New(100, 100, 30)
	f.Place(1, Point{0, 0})
	f.Place(2, Point{0, 29})
	f.Place(3, Point{0, 31})
	if !f.InRange(1, 2) || !f.InRange(2, 1) {
		t.Fatal("InRange not symmetric for in-range pair")
	}
	if f.InRange(1, 3) {
		t.Fatal("nodes 31m apart in range 30")
	}
	if f.InRange(1, 1) {
		t.Fatal("node in range of itself")
	}
}

func TestInRangeScaledHighPower(t *testing.T) {
	f := New(200, 200, 30)
	f.Place(1, Point{0, 0})
	f.Place(2, Point{0, 80})
	if f.InRange(1, 2) {
		t.Fatal("80m apart should be out of normal range")
	}
	if !f.InRangeScaled(1, 2, 3) {
		t.Fatal("high-power 3x should reach 80m")
	}
	nbs := f.NeighborsScaled(1, 3)
	if len(nbs) != 1 || nbs[0] != 2 {
		t.Fatalf("NeighborsScaled = %v", nbs)
	}
}

func TestNeighborsSortedAndCorrect(t *testing.T) {
	f := New(100, 100, 10)
	f.Place(5, Point{50, 50})
	f.Place(3, Point{55, 50})
	f.Place(9, Point{50, 58})
	f.Place(1, Point{90, 90})
	nbs := f.Neighbors(5)
	if len(nbs) != 2 || nbs[0] != 3 || nbs[1] != 9 {
		t.Fatalf("Neighbors(5) = %v, want [3 9]", nbs)
	}
}

func TestHopDistances(t *testing.T) {
	// Chain: 1 - 2 - 3 - 4, plus isolated 5.
	f := New(1000, 10, 10)
	f.Place(1, Point{0, 0})
	f.Place(2, Point{9, 0})
	f.Place(3, Point{18, 0})
	f.Place(4, Point{27, 0})
	f.Place(5, Point{500, 0})
	want := map[NodeID]int{1: 0, 2: 1, 3: 2, 4: 3}
	for id, hops := range want {
		if d := f.HopDistance(1, id); d != hops {
			t.Errorf("HopDistance(1,%d) = %d, want %d", id, d, hops)
		}
	}
	if hd := f.HopDistance(1, 5); hd != -1 {
		t.Fatalf("HopDistance to isolated node = %d, want -1", hd)
	}
	if f.Connected() {
		t.Fatal("field with isolated node reported connected")
	}
}

func TestConnectedTrivial(t *testing.T) {
	f := New(10, 10, 5)
	if !f.Connected() {
		t.Fatal("empty field should be connected")
	}
	f.Place(1, Point{1, 1})
	if !f.Connected() {
		t.Fatal("single node should be connected")
	}
}

func TestDeployUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	side := SideForDensity(100, 8, 30)
	f, err := DeployUniform(DeployConfig{N: 100, Width: side, Height: side, Range: 30, FirstID: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 100 {
		t.Fatalf("Len = %d", f.Len())
	}
	if !f.Connected() {
		t.Fatal("deployment not connected")
	}
	// Average degree should be in the ballpark of the target NB=8
	// (edge effects pull it down).
	total := 0
	for _, id := range f.IDs() {
		total += f.Degree(id)
	}
	if deg := float64(total) / float64(f.Len()); deg < 4 || deg > 12 {
		t.Fatalf("average degree = %g, want ~8", deg)
	}
	// All nodes within the field bounds.
	for _, id := range f.IDs() {
		p, _ := f.Position(id)
		if p.X < 0 || p.X > f.Width || p.Y < 0 || p.Y > f.Height {
			t.Fatalf("node %d outside field: %v", id, p)
		}
	}
}

func TestDeployUniformRejectsBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := DeployUniform(DeployConfig{N: 0, Width: 10, Height: 10, Range: 5}, rng); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := DeployUniform(DeployConfig{N: 5, Width: 0, Height: 10, Range: 5}, rng); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestDeployUniformFailsWhenDisconnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Two nodes in a huge field with a tiny range will essentially never
	// be connected.
	_, err := DeployUniform(DeployConfig{N: 2, Width: 1e6, Height: 1e6, Range: 0.001}, rng)
	if err == nil {
		t.Fatal("expected failure for impossible connectivity")
	}
}

func TestSideForDensity(t *testing.T) {
	// N=100, NB=8, r=30 should give a side in the low hundreds of meters
	// (the paper's fields run 80x80 to a few hundred on a side).
	side := SideForDensity(100, 8, 30)
	if side < 150 || side > 400 {
		t.Fatalf("side = %g, want 150-400", side)
	}
	if SideForDensity(0, 8, 30) != 0 || SideForDensity(10, 0, 30) != 0 {
		t.Fatal("degenerate inputs should give 0")
	}
}

func TestPickDistantNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	side := SideForDensity(100, 8, 30)
	f, err := DeployUniform(DeployConfig{N: 100, Width: side, Height: side, Range: 30, FirstID: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	picked, err := PickDistantNodes(f, 4, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 4 {
		t.Fatalf("picked %d nodes", len(picked))
	}
	for i := 0; i < len(picked); i++ {
		for j := i + 1; j < len(picked); j++ {
			hd := f.HopDistance(picked[i], picked[j])
			if hd >= 0 && hd <= 2 {
				t.Fatalf("nodes %d,%d only %d hops apart", picked[i], picked[j], hd)
			}
		}
	}
}

func TestPickDistantNodesEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := New(10, 10, 5)
	f.Place(1, Point{1, 1})
	if got, err := PickDistantNodes(f, 0, 2, rng); err != nil || got != nil {
		t.Fatalf("count=0: %v,%v", got, err)
	}
	if _, err := PickDistantNodes(f, 2, 2, rng); err == nil {
		t.Fatal("asking for more nodes than exist should fail")
	}
}

// guardRegion is the reference guard set of a directed link X->A: the
// nodes within range of both X and A (X itself qualifies; A does not guard
// its own incoming link), ascending. It intersects the two sorted
// neighbor lists, which exclude x and a themselves, and merges x in at its
// place. The simulator's guards are the nodes that hear both ends; the
// tests hold that geometry to the closed forms of geometry.go.
func guardRegion(f *Field, x, a NodeID) []NodeID {
	if !f.InRange(x, a) {
		return nil
	}
	nx, na := f.Neighbors(x), f.Neighbors(a)
	out := make([]NodeID, 0, len(nx)+1)
	xPlaced := false
	i, j := 0, 0
	for i < len(nx) && j < len(na) {
		switch {
		case nx[i] < na[j]:
			i++
		case nx[i] > na[j]:
			j++
		default:
			if !xPlaced && x < nx[i] {
				out = append(out, x)
				xPlaced = true
			}
			out = append(out, nx[i])
			i++
			j++
		}
	}
	if !xPlaced {
		out = append(out, x)
	}
	return out
}

// density returns f's nodes per square meter.
func density(f *Field) float64 {
	return float64(len(f.ids)) / (f.Width * f.Height)
}

func TestGuardRegion(t *testing.T) {
	// X at origin, A 20m away; M equidistant from both; F far away.
	f := New(200, 200, 30)
	f.Place(1, Point{0, 0})     // X
	f.Place(2, Point{20, 0})    // A
	f.Place(3, Point{10, 10})   // M guard
	f.Place(4, Point{150, 150}) // F not a guard
	guards := guardRegion(f, 1, 2)
	if len(guards) != 2 || guards[0] != 1 || guards[1] != 3 {
		t.Fatalf("GuardRegion = %v, want [1 3] (X itself plus M)", guards)
	}
	// Non-adjacent pair has no guard region.
	if g := guardRegion(f, 1, 4); len(g) != 0 {
		t.Fatalf("GuardRegion of non-link = %v", g)
	}
}

func TestGuardRegionExcludesReceiver(t *testing.T) {
	f := New(100, 100, 30)
	f.Place(1, Point{0, 0})
	f.Place(2, Point{10, 0})
	for _, g := range guardRegion(f, 1, 2) {
		if g == 2 {
			t.Fatal("receiver A listed as guard of its own incoming link")
		}
	}
}

// --- geometry ---

func TestLensAreaKnownValues(t *testing.T) {
	r := 30.0
	// x=0: full circle.
	if got, want := LensArea(0, r), math.Pi*r*r; math.Abs(got-want) > 1e-9 {
		t.Fatalf("LensArea(0) = %g, want %g", got, want)
	}
	// x=2r: zero.
	if got := LensArea(2*r, r); got != 0 {
		t.Fatalf("LensArea(2r) = %g, want 0", got)
	}
	// x=r: (2*pi/3 - sqrt(3)/2) r^2 ~= 1.2284 r^2.
	want := (2*math.Pi/3 - math.Sqrt(3)/2) * r * r
	if got := LensArea(r, r); math.Abs(got-want) > 1e-9 {
		t.Fatalf("LensArea(r) = %g, want %g", got, want)
	}
}

func TestLensAreaDegenerate(t *testing.T) {
	if LensArea(1, 0) != 0 {
		t.Fatal("zero radius should give zero area")
	}
	if LensArea(100, 10) != 0 {
		t.Fatal("far-apart disks should give zero area")
	}
	if got := LensArea(-5, 10); math.Abs(got-LensArea(5, 10)) > 1e-12 {
		t.Fatal("negative separation should mirror positive")
	}
}

func TestLensAreaMonotoneDecreasing(t *testing.T) {
	r := 30.0
	prev := LensArea(0, r)
	for i := 1; i <= 100; i++ {
		x := float64(i) / 100 * 2 * r
		cur := LensArea(x, r)
		if cur > prev+1e-9 {
			t.Fatalf("LensArea not decreasing at x=%g: %g > %g", x, cur, prev)
		}
		prev = cur
	}
}

func TestPropertyLensAreaBounds(t *testing.T) {
	f := func(xFrac, rRaw float64) bool {
		r := math.Abs(rRaw)
		if r == 0 || math.IsNaN(r) || math.IsInf(r, 0) || r > 1e6 {
			return true // skip degenerate draws
		}
		x := math.Mod(math.Abs(xFrac), 2) * r
		a := LensArea(x, r)
		return a >= 0 && a <= math.Pi*r*r+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedGuardAreaExactValue(t *testing.T) {
	// Exact integral of the lens area against f(x)=2x/r^2 is ~1.842 r^2.
	// (The paper rounds this intermediate to 1.6 r^2; see geometry.go.)
	r := 30.0
	got := ExpectedGuardArea(r) / (r * r)
	if got < 1.83 || got > 1.86 {
		t.Fatalf("E[A]/r^2 = %g, want ~1.842", got)
	}
}

func TestMinGuardAreaMatchesClosedForm(t *testing.T) {
	r := 17.0
	want := (2*math.Pi/3 - math.Sqrt(3)/2) * r * r
	if got := MinGuardArea(r); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MinGuardArea = %g, want %g", got, want)
	}
}

func TestGuardsFromNeighborsExactRatio(t *testing.T) {
	// Exact lens geometry: g ~= 0.587 NB (the paper's Equation (I) rounds
	// its intermediate E[A] to 1.6 r^2 and states 0.51; see geometry.go).
	got := GuardsFromNeighbors(10)
	if got < 5.7 || got > 6.0 {
		t.Fatalf("GuardsFromNeighbors(10) = %g, want ~5.87", got)
	}
}

func TestPaperGuardsFromNeighbors(t *testing.T) {
	if got := PaperGuardsFromNeighbors(10); math.Abs(got-5.1) > 1e-12 {
		t.Fatalf("PaperGuardsFromNeighbors(10) = %g, want 5.1", got)
	}
}

func TestExpectedNeighborsAndDensityInverse(t *testing.T) {
	r := 30.0
	d := DensityForNeighbors(8, r)
	if got := ExpectedNeighbors(r, d); math.Abs(got-8) > 1e-9 {
		t.Fatalf("round trip NB = %g, want 8", got)
	}
}

func TestExpectedGuardsScalesWithDensity(t *testing.T) {
	r := 30.0
	g1 := ExpectedGuards(r, 0.001)
	g2 := ExpectedGuards(r, 0.002)
	if math.Abs(g2-2*g1) > 1e-9 {
		t.Fatalf("guards not linear in density: %g vs %g", g1, g2)
	}
}

func TestLinkDistancePDFIntegratesToOne(t *testing.T) {
	r := 30.0
	const steps = 100000
	h := r / steps
	sum := 0.0
	for i := 0; i < steps; i++ {
		x := (float64(i) + 0.5) * h
		sum += LinkDistancePDF(x, r) * h
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("pdf integrates to %g, want 1", sum)
	}
}

// Property: simulated guard counts should track the analytic expectation.
// We deploy a dense field and compare the mean guard-region size per link
// against ExpectedGuards within a loose tolerance (edge effects shrink it).
func TestGuardCountMatchesAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := 30.0
	nb := 12.0
	side := SideForDensity(300, nb, r)
	f, err := DeployUniform(DeployConfig{N: 300, Width: side, Height: side, Range: r, FirstID: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := density(f)
	want := ExpectedGuards(r, d)
	var total, links float64
	for _, x := range f.IDs() {
		for _, a := range f.Neighbors(x) {
			total += float64(len(guardRegion(f, x, a)))
			links++
		}
	}
	got := total / links
	// Edge effects bite hard at this field size; expect within 40%.
	if got < want*0.6 || got > want*1.4 {
		t.Fatalf("mean simulated guards = %g, analytic %g: mismatch beyond tolerance", got, want)
	}
}
