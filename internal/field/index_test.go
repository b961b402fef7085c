package field

import (
	"math/rand"
	"testing"
)

// bruteGuards recomputes guardRegion by scanning every node: the sorted
// intersection of two neighbor lists must match it exactly.
func bruteGuards(f *Field, x, a NodeID) []NodeID {
	if !f.InRange(x, a) {
		return nil
	}
	var out []NodeID
	for _, g := range f.ids {
		if g == a {
			continue
		}
		if g == x || (f.InRange(x, g) && f.InRange(a, g)) {
			out = append(out, g)
		}
	}
	return out
}

// bruteHops runs BFS over the brute-force neighbor scan.
func bruteHops(f *Field, src NodeID) map[NodeID]int {
	dist := map[NodeID]int{src: 0}
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range f.scanNeighbors(cur, 1) {
			if _, seen := dist[nb]; !seen {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

func equalIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPropertyIndexMatchesScan deploys random topologies and checks that
// every indexed query returns exactly what the pre-index brute-force scan
// produced — same elements, same order. Identical order matters beyond
// correctness: receiver iteration order feeds the deterministic RNG, so any
// divergence would silently change simulation results.
func TestPropertyIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(60)
		w := 50 + rng.Float64()*250
		h := 50 + rng.Float64()*250
		r := 10 + rng.Float64()*60
		f := New(w, h, r)
		for i := 0; i < n; i++ {
			// Sparse, shuffled IDs so sortedness is not an accident of
			// insertion order.
			id := NodeID(rng.Intn(10 * n))
			f.Place(id, Point{X: rng.Float64() * w, Y: rng.Float64() * h})
		}
		ids := f.IDs()
		for _, id := range ids {
			want := f.scanNeighbors(id, 1)
			if got := f.Neighbors(id); !equalIDs(got, want) {
				t.Fatalf("trial %d: Neighbors(%d) = %v, scan = %v", trial, id, got, want)
			}
			if got := f.NeighborsScaled(id, 1); !equalIDs(got, want) {
				t.Fatalf("trial %d: NeighborsScaled(%d,1) = %v, scan = %v", trial, id, got, want)
			}
			if got, want := f.Degree(id), len(want); got != want {
				t.Fatalf("trial %d: Degree(%d) = %d, want %d", trial, id, got, want)
			}
		}
		// Guard regions over a sample of directed in-range pairs.
		for _, x := range ids {
			for _, a := range f.Neighbors(x) {
				got := guardRegion(f, x, a)
				want := bruteGuards(f, x, a)
				if !equalIDs(got, want) {
					t.Fatalf("trial %d: guardRegion(%d,%d) = %v, brute = %v", trial, x, a, got, want)
				}
			}
		}
		// Hop distances from a few sources.
		for s := 0; s < 3 && s < len(ids); s++ {
			src := ids[rng.Intn(len(ids))]
			want := bruteHops(f, src)
			for _, id := range ids {
				d, ok := want[id]
				if !ok {
					d = -1
				}
				if got := f.HopDistance(src, id); got != d {
					t.Fatalf("trial %d: HopDistance(%d,%d) = %d, brute = %d", trial, src, id, got, d)
				}
			}
		}
	}
}

// TestIndexInvalidatedByPlace checks that adding or moving a node drops the
// cached adjacency.
func TestIndexInvalidatedByPlace(t *testing.T) {
	f := New(100, 100, 20)
	f.Place(1, Point{10, 10})
	f.Place(2, Point{25, 10})
	if nbs := f.Neighbors(1); len(nbs) != 1 || nbs[0] != 2 {
		t.Fatalf("Neighbors(1) = %v, want [2]", nbs)
	}
	// A new node lands in range of 1: the rebuilt index must see it.
	f.Place(3, Point{10, 25})
	if nbs := f.Neighbors(1); len(nbs) != 2 || nbs[0] != 2 || nbs[1] != 3 {
		t.Fatalf("Neighbors(1) after join = %v, want [2 3]", nbs)
	}
	if d := f.HopDistance(2, 3); d != 2 {
		t.Fatalf("HopDistance(2,3) = %d, want 2", d)
	}
	// Moving node 3 out of everyone's range invalidates again.
	f.Place(3, Point{90, 90})
	if nbs := f.Neighbors(1); len(nbs) != 1 || nbs[0] != 2 {
		t.Fatalf("Neighbors(1) after move = %v, want [2]", nbs)
	}
	if d := f.HopDistance(2, 3); d != -1 {
		t.Fatalf("HopDistance(2,3) after move = %d, want -1", d)
	}
}

// TestNeighborsSharedSliceSurvivesPlace pins the documented lifetime
// contract: a slice handed out before a Place keeps its old contents (the
// adjacency is rebuilt, not mutated in place).
func TestNeighborsSharedSliceSurvivesPlace(t *testing.T) {
	f := New(100, 100, 20)
	f.Place(1, Point{10, 10})
	f.Place(2, Point{20, 10})
	old := f.Neighbors(1)
	f.Place(3, Point{10, 20})
	if len(old) != 1 || old[0] != 2 {
		t.Fatalf("pre-Place slice changed: %v", old)
	}
}

func benchField(b *testing.B, n int) *Field {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	f, err := DeployUniform(DeployConfig{N: n, Width: 300, Height: 300, Range: 60, FirstID: 1}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

func BenchmarkNeighborsIndexed(b *testing.B) {
	f := benchField(b, 100)
	ids := f.IDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Neighbors(ids[i%len(ids)])
	}
}

func BenchmarkHopDistance(b *testing.B) {
	f := benchField(b, 100)
	ids := f.IDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.HopDistance(ids[i%len(ids)], ids[(i+7)%len(ids)])
	}
}
