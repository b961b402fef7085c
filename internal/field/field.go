// Package field models the physical deployment of a multihop wireless
// network: a rectangular field, node positions, the unit-disk connectivity
// graph induced by a common communication range, and the guard-area geometry
// that underlies LITEWORP's coverage analysis (paper §5.1, Fig. 5).
package field

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"
)

// NodeID identifies a node. IDs are 4 bytes on the wire, matching the
// paper's cost analysis ("the identity of a node in the network is 4 bytes").
type NodeID uint32

// Broadcast is the reserved receiver ID meaning "all nodes in range".
const Broadcast NodeID = 0xFFFFFFFF

// Point is a position in the 2-D field, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	return math.Hypot(dx, dy)
}

// Field is a rectangular deployment area with a set of positioned nodes and
// a common communication range r.
type Field struct {
	Width, Height float64 // meters
	Range         float64 // communication range r, meters
	pos           map[NodeID]Point
	ids           []NodeID // sorted, for deterministic iteration

	// idx caches adjacency and BFS results for the static topology; nil
	// until first queried and invalidated by Place (see index.go).
	idx *topoIndex
}

// New returns an empty field of the given dimensions and radio range.
func New(width, height, commRange float64) *Field {
	return &Field{
		Width:  width,
		Height: height,
		Range:  commRange,
		pos:    make(map[NodeID]Point),
	}
}

// SideForDensity returns the side length of a square field that holds n
// nodes at an average neighbor count nb for communication range r. From
// NB = pi r^2 d and d = n / side^2.
func SideForDensity(n int, nb, r float64) float64 {
	if nb <= 0 || r <= 0 || n <= 0 {
		return 0
	}
	d := nb / (math.Pi * r * r)
	return math.Sqrt(float64(n) / d)
}

// Density returns nodes per square meter.
func (f *Field) Density() float64 {
	if f.Width <= 0 || f.Height <= 0 {
		return 0
	}
	return float64(len(f.pos)) / (f.Width * f.Height)
}

// Place puts (or moves) a node at p. Placing the Broadcast ID is rejected.
func (f *Field) Place(id NodeID, p Point) error {
	if id == Broadcast {
		return fmt.Errorf("field: cannot place reserved broadcast id %d", id)
	}
	if _, ok := f.pos[id]; !ok {
		// Insert in sorted position rather than re-sorting the whole slice.
		i := sort.Search(len(f.ids), func(i int) bool { return f.ids[i] >= id })
		f.ids = append(f.ids, 0)
		copy(f.ids[i+1:], f.ids[i:])
		f.ids[i] = id
	}
	f.pos[id] = p
	f.idx = nil // topology changed: drop cached adjacency and BFS results
	return nil
}

// Position returns a node's position.
func (f *Field) Position(id NodeID) (Point, bool) {
	p, ok := f.pos[id]
	return p, ok
}

// IDs returns all node IDs in ascending order. The returned slice is a copy.
func (f *Field) IDs() []NodeID {
	out := make([]NodeID, len(f.ids))
	copy(out, f.ids)
	return out
}

// Len returns the number of placed nodes.
func (f *Field) Len() int { return len(f.pos) }

// InRange reports whether a and b are within communication range of each
// other (bidirectional links: the paper assumes symmetric channels).
func (f *Field) InRange(a, b NodeID) bool {
	pa, oka := f.pos[a]
	pb, okb := f.pos[b]
	if !oka || !okb || a == b {
		return false
	}
	return Dist(pa, pb) <= f.Range
}

// InRangeScaled reports whether b can hear a transmission from a whose range
// is scaled by factor (used for the high-power transmission attack mode).
func (f *Field) InRangeScaled(a, b NodeID, factor float64) bool {
	pa, oka := f.pos[a]
	pb, okb := f.pos[b]
	if !oka || !okb || a == b {
		return false
	}
	return Dist(pa, pb) <= f.Range*factor
}

// Neighbors returns the IDs within communication range of id, ascending.
// The returned slice is shared with the topology index and must be treated
// as read-only; it stays valid after later Place calls (the index is
// rebuilt, the old slice is simply orphaned).
func (f *Field) Neighbors(id NodeID) []NodeID {
	return f.index().adj[id]
}

// Degree returns id's neighbor count, an O(1) index lookup.
func (f *Field) Degree(id NodeID) int {
	return len(f.index().adj[id])
}

// NeighborsScaled returns the IDs within factor*Range of id, ascending.
// factor == 1 is the indexed fast path and returns the shared read-only
// adjacency slice; other factors (the high-power attack mode) fall back to
// the linear scan and return a fresh slice.
func (f *Field) NeighborsScaled(id NodeID, factor float64) []NodeID {
	if factor == 1 {
		return f.index().adj[id]
	}
	return f.scanNeighbors(id, factor)
}

// AverageDegree returns the mean neighbor count over all nodes.
func (f *Field) AverageDegree() float64 {
	if len(f.ids) == 0 {
		return 0
	}
	total := 0
	for _, id := range f.ids {
		total += f.Degree(id)
	}
	return float64(total) / float64(len(f.ids))
}

// Adjacency returns the unit-disk adjacency lists for all nodes. The
// returned slices are copies and safe to mutate.
func (f *Field) Adjacency() map[NodeID][]NodeID {
	idx := f.index()
	adj := make(map[NodeID][]NodeID, len(f.ids))
	for _, id := range f.ids {
		adj[id] = append([]NodeID(nil), idx.adj[id]...)
	}
	return adj
}

// HopDistances returns the BFS hop count from src to every reachable node.
// Unreachable nodes are absent from the map. src maps to 0. The returned
// map is a copy of the memoised traversal and safe to mutate.
func (f *Field) HopDistances(src NodeID) map[NodeID]int {
	return maps.Clone(f.hopDistances(src))
}

// HopDistance returns the hop count between a and b, or -1 if disconnected.
func (f *Field) HopDistance(a, b NodeID) int {
	d, ok := f.hopDistances(a)[b]
	if !ok {
		return -1
	}
	return d
}

// Connected reports whether the unit-disk graph is a single component.
func (f *Field) Connected() bool {
	if len(f.ids) <= 1 {
		return true
	}
	return len(f.hopDistances(f.ids[0])) == len(f.ids)
}

// DeployConfig controls random uniform deployment.
type DeployConfig struct {
	N          int     // number of nodes
	Width      float64 // field width (meters)
	Height     float64 // field height (meters)
	Range      float64 // communication range r (meters)
	FirstID    NodeID  // IDs are FirstID..FirstID+N-1
	MaxRetries int     // redeploy attempts to reach a connected topology
}

// DeployUniform places N nodes uniformly at random, retrying until the
// resulting unit-disk graph is connected (the paper's scenarios are
// connected networks; partitioned deployments would conflate routing
// failures with attack effects). It fails after MaxRetries attempts.
func DeployUniform(cfg DeployConfig, rng *rand.Rand) (*Field, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("field: N must be positive, got %d", cfg.N)
	}
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.Range <= 0 {
		return nil, fmt.Errorf("field: dimensions and range must be positive (%gx%g r=%g)",
			cfg.Width, cfg.Height, cfg.Range)
	}
	retries := cfg.MaxRetries
	if retries <= 0 {
		retries = 100
	}
	for attempt := 0; attempt < retries; attempt++ {
		f := New(cfg.Width, cfg.Height, cfg.Range)
		for i := 0; i < cfg.N; i++ {
			p := Point{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
			if err := f.Place(cfg.FirstID+NodeID(i), p); err != nil {
				return nil, err
			}
		}
		if f.Connected() {
			return f, nil
		}
	}
	return nil, fmt.Errorf("field: no connected deployment of %d nodes in %gx%g after %d attempts",
		cfg.N, cfg.Width, cfg.Height, retries)
}

// PickDistantNodes selects count node IDs uniformly at random such that
// every pair is more than minHops apart in the unit-disk graph — the paper
// chooses malicious nodes "at random such that they are more than 2 hops
// away from each other". It returns an error when no such set is found.
func PickDistantNodes(f *Field, count, minHops int, rng *rand.Rand, attempts int) ([]NodeID, error) {
	if count <= 0 {
		return nil, nil
	}
	ids := f.IDs()
	if count > len(ids) {
		return nil, fmt.Errorf("field: want %d nodes, field has %d", count, len(ids))
	}
	if attempts <= 0 {
		attempts = 1000
	}
	for a := 0; a < attempts; a++ {
		perm := rng.Perm(len(ids))
		picked := make([]NodeID, 0, count)
		for _, idx := range perm {
			cand := ids[idx]
			ok := true
			for _, p := range picked {
				hd := f.HopDistance(p, cand)
				if hd >= 0 && hd <= minHops {
					ok = false
					break
				}
			}
			if ok {
				picked = append(picked, cand)
				if len(picked) == count {
					return picked, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("field: could not pick %d nodes pairwise >%d hops apart", count, minHops)
}

// GuardRegion reports, for a directed link X->A, the node IDs that can guard
// it: nodes within range of both X and A (X itself qualifies; A does not
// guard its own incoming link). It intersects the two sorted adjacency
// lists, so the cost is O(deg) rather than a scan of the whole field. The
// returned slice is fresh and ascending.
func (f *Field) GuardRegion(x, a NodeID) []NodeID {
	if !f.InRange(x, a) {
		return nil
	}
	adj := f.index().adj
	nx, na := adj[x], adj[a]
	// The intersection of the two neighbor lists is exactly the set of
	// common guards: x and a exclude themselves from their own lists, so
	// neither appears in it. x is then merged in at its sorted position.
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
