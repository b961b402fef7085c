package field

import (
	"math"
	"slices"
)

// This file builds the adjacency behind Neighbors and Degree and runs the
// hop-distance traversals. Deployments are effectively
// immutable once placed (nodes join rarely, move never), yet the hot loops
// (Medium.transmit resolving receivers, the collision model reading
// degrees) ask for neighbors per transmission. So the adjacency is built
// once from a spatial grid bucketed by the communication range (each node
// only compares against its own and the eight surrounding cells) and kept,
// sorted ascending per node, in a slice parallel to ids. Neighbors returns
// the shared slice; the ascending order is exactly what the brute-force
// scan produces, so receiver iteration, and therefore the RNG draw
// sequence, is the scan's.
//
// Any Place call drops the whole adjacency (topology changes are rare and
// coarse-grained; rebuilding is cheaper than tracking deltas correctly).
// Hop distances are not kept: Connected, HopDistance and PickDistantNodes
// run at setup, and each runs one plain BFS per source it asks about.

// adjacency returns the sorted adjacency lists, parallel to ids, building
// them on first use after a Place.
func (f *Field) adjacency() [][]NodeID {
	if f.adj == nil {
		f.adj = f.buildAdjacency()
	}
	return f.adj
}

// gridCell addresses one bucket of the spatial grid.
type gridCell struct{ x, y int }

// buildAdjacency computes sorted adjacency for every node via a spatial
// grid with cell side equal to the communication range: all neighbors of a
// node lie in its own or one of the eight adjacent cells.
func (f *Field) buildAdjacency() [][]NodeID {
	r := f.Range
	cellOf := func(p Point) gridCell {
		return gridCell{int(math.Floor(p.X / r)), int(math.Floor(p.Y / r))}
	}
	// Slots are visited in ascending order, so every bucket is ascending.
	grid := make(map[gridCell][]int, len(f.ids))
	for i, p := range f.pos {
		c := cellOf(p)
		grid[c] = append(grid[c], i)
	}
	adj := make([][]NodeID, len(f.ids))
	for i, p := range f.pos {
		c := cellOf(p)
		var nbs []NodeID
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range grid[gridCell{c.x + dx, c.y + dy}] {
					if j != i && Dist(p, f.pos[j]) <= r {
						nbs = append(nbs, f.ids[j])
					}
				}
			}
		}
		slices.Sort(nbs)
		adj[i] = nbs
	}
	return adj
}

// scanNeighbors is the brute-force O(N) reference scan, kept for scaled
// ranges and as the ground truth the index property tests compare against.
func (f *Field) scanNeighbors(id NodeID, factor float64) []NodeID {
	var out []NodeID
	for _, other := range f.ids {
		if f.InRangeScaled(id, other, factor) {
			out = append(out, other)
		}
	}
	return out
}

// hops returns the BFS hop count from src to every node, parallel to ids;
// -1 marks a node src cannot reach (every node, when src is not placed).
func (f *Field) hops(src NodeID) []int {
	adj := f.adjacency()
	dist := make([]int, len(f.ids))
	for i := range dist {
		dist[i] = -1
	}
	s, ok := f.slot(src)
	if !ok {
		return dist
	}
	dist[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if j, _ := f.slot(nb); dist[j] < 0 {
				dist[j] = dist[cur] + 1
				queue = append(queue, j)
			}
		}
	}
	return dist
}
