// Package field models the physical deployment of a multihop wireless
// network: a rectangular field, node positions, the unit-disk connectivity
// graph induced by a common communication range, and the guard-area geometry
// that underlies LITEWORP's coverage analysis (paper §5.1, Fig. 5).
package field

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// a common communication range r. It is the one owner of topology facts:
// positions and adjacency live in slices parallel to the ascending ids, so
// a node's facts are at its slot (see slot).
type Field struct {
	Width, Height float64  // meters
	Range         float64  // communication range r, meters
	ids           []NodeID // ascending, for deterministic iteration
	pos           []Point  // pos[i] is ids[i]'s position

	// adj[i] lists ids[i]'s neighbors, ascending; nil until first queried
	// and dropped by Place (see index.go).
	adj [][]NodeID
}

// New returns an empty field of the given dimensions and radio range.
func New(width, height, commRange float64) *Field {
	return &Field{Width: width, Height: height, Range: commRange}
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

// slot returns id's index in ids, or where it would be inserted and false.
// Deployments place dense IDs (FirstID+i), so id-ids[0] is tried before
// the binary search.
func (f *Field) slot(id NodeID) (int, bool) {
	if len(f.ids) > 0 {
		if i := uint64(id - f.ids[0]); i < uint64(len(f.ids)) && f.ids[i] == id {
			return int(i), true
		}
	}
	return slices.BinarySearch(f.ids, id)
}

// Place puts (or moves) a node at p. Placing the Broadcast ID is rejected.
func (f *Field) Place(id NodeID, p Point) error {
	if id == Broadcast {
		return fmt.Errorf("field: cannot place reserved broadcast id %d", id)
	}
	if i, ok := f.slot(id); ok {
		f.pos[i] = p
	} else {
		f.ids = slices.Insert(f.ids, i, id)
		f.pos = slices.Insert(f.pos, i, p)
	}
	f.adj = nil // topology changed: drop the adjacency
	return nil
}

// Position returns a node's position.
func (f *Field) Position(id NodeID) (Point, bool) {
	if i, ok := f.slot(id); ok {
		return f.pos[i], true
	}
	return Point{}, false
}

// IDs returns all node IDs in ascending order. The returned slice is a copy.
func (f *Field) IDs() []NodeID {
	return slices.Clone(f.ids)
}

// Len returns the number of placed nodes.
func (f *Field) Len() int { return len(f.ids) }

// InRange reports whether a and b are within communication range of each
// other (bidirectional links: the paper assumes symmetric channels).
func (f *Field) InRange(a, b NodeID) bool {
	return f.InRangeScaled(a, b, 1)
}

// InRangeScaled reports whether b can hear a transmission from a whose range
// is scaled by factor (used for the high-power transmission attack mode).
func (f *Field) InRangeScaled(a, b NodeID, factor float64) bool {
	ia, oka := f.slot(a)
	ib, okb := f.slot(b)
	if !oka || !okb || a == b {
		return false
	}
	return Dist(f.pos[ia], f.pos[ib]) <= f.Range*factor
}

// Neighbors returns the IDs within communication range of id, ascending.
// The returned slice is shared with the field and must be treated as
// read-only; it stays valid after later Place calls (the adjacency is
// rebuilt, the old slice is simply orphaned).
func (f *Field) Neighbors(id NodeID) []NodeID {
	if i, ok := f.slot(id); ok {
		return f.adjacency()[i]
	}
	return nil
}

// Degree returns id's neighbor count.
func (f *Field) Degree(id NodeID) int {
	return len(f.Neighbors(id))
}

// NeighborsScaled returns the IDs within factor*Range of id, ascending.
// factor == 1 is Neighbors and returns the shared read-only adjacency
// slice; other factors (the high-power attack mode) fall back to the
// linear scan and return a fresh slice.
func (f *Field) NeighborsScaled(id NodeID, factor float64) []NodeID {
	if factor == 1 {
		return f.Neighbors(id)
	}
	return f.scanNeighbors(id, factor)
}

// HopDistance returns the hop count between a and b, or -1 if disconnected.
func (f *Field) HopDistance(a, b NodeID) int {
	if i, ok := f.slot(b); ok {
		return f.hops(a)[i]
	}
	return -1
}

// Connected reports whether the unit-disk graph is a single component.
func (f *Field) Connected() bool {
	if len(f.ids) <= 1 {
		return true
	}
	return !slices.Contains(f.hops(f.ids[0]), -1)
}

// DeployConfig controls random uniform deployment.
type DeployConfig struct {
	N       int     // number of nodes
	Width   float64 // field width (meters)
	Height  float64 // field height (meters)
	Range   float64 // communication range r (meters)
	FirstID NodeID  // IDs are FirstID..FirstID+N-1
}

// deployAttempts bounds the redeployments DeployUniform tries for a
// connected topology.
const deployAttempts = 100

// DeployUniform places N nodes uniformly at random, retrying until the
// resulting unit-disk graph is connected (the paper's scenarios are
// connected networks; partitioned deployments would conflate routing
// failures with attack effects). It fails after deployAttempts attempts.
func DeployUniform(cfg DeployConfig, rng *rand.Rand) (*Field, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("field: N must be positive, got %d", cfg.N)
	}
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.Range <= 0 {
		return nil, fmt.Errorf("field: dimensions and range must be positive (%gx%g r=%g)",
			cfg.Width, cfg.Height, cfg.Range)
	}
	for attempt := 0; attempt < deployAttempts; attempt++ {
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
		cfg.N, cfg.Width, cfg.Height, deployAttempts)
}

// pickAttempts bounds the random orders PickDistantNodes tries.
const pickAttempts = 2000

// PickDistantNodes selects count node IDs uniformly at random such that
// every pair is more than minHops apart in the unit-disk graph — the paper
// chooses malicious nodes "at random such that they are more than 2 hops
// away from each other". It returns an error when no such set is found.
func PickDistantNodes(f *Field, count, minHops int, rng *rand.Rand) ([]NodeID, error) {
	if count <= 0 {
		return nil, nil
	}
	if count > len(f.ids) {
		return nil, fmt.Errorf("field: want %d nodes, field has %d", count, len(f.ids))
	}
	for a := 0; a < pickAttempts; a++ {
		picked := make([]NodeID, 0, count)
		var dists [][]int // dists[k] holds the hop counts from picked[k]
		for _, i := range rng.Perm(len(f.ids)) {
			if slices.ContainsFunc(dists, func(d []int) bool { return d[i] >= 0 && d[i] <= minHops }) {
				continue
			}
			picked = append(picked, f.ids[i])
			if len(picked) == count {
				return picked, nil
			}
			dists = append(dists, f.hops(f.ids[i]))
		}
	}
	return nil, fmt.Errorf("field: could not pick %d nodes pairwise >%d hops apart", count, minHops)
}
