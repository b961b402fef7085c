package analysis

import "math"

// This file reproduces the paper's cost analysis (§5.2): the memory,
// computation, and bandwidth overheads that justify "lightweight".

// CostParams are the cost-model inputs.
type CostParams struct {
	// Range is the communication range r (meters); Density is d (nodes
	// per square meter). NB = pi r^2 d.
	Range   float64
	Density float64
	// Gamma sizes the alert buffer (gamma 4-byte entries).
	Gamma int
	// AvgRouteHops is h, the average source-destination hop count.
	AvgRouteHops float64
	// RouteRate is f, network-wide route establishments per time unit.
	RouteRate float64
	// TotalNodes is N.
	TotalNodes int
	// WatchEntryLifetime is how many time units a watch entry lives
	// (the paper treats it as < 1 time unit).
	WatchEntryLifetime float64
	// WatchRequests includes route requests in the watch (the paper's
	// optional extension; doubles the watched packets).
	WatchRequests bool
}

// PaperCostParams returns the §5.2 example: N=100 nodes, h=4 hops, f=1
// route per 4 time units, NB=10-neighbor density.
func PaperCostParams() CostParams {
	r := 30.0
	nb := 10.0
	return CostParams{
		Range:              r,
		Density:            nb / (math.Pi * r * r),
		Gamma:              4,
		AvgRouteHops:       4,
		RouteRate:          0.25,
		TotalNodes:         100,
		WatchEntryLifetime: 1,
	}
}

// NeighborCount returns NB = pi r^2 d.
func (c CostParams) NeighborCount() float64 {
	return math.Pi * c.Range * c.Range * c.Density
}

// NeighborListEntries returns the neighbor-list size NBL = pi r^2 d.
func (c CostParams) NeighborListEntries() float64 {
	return c.NeighborCount()
}

// NeighborListBytes returns the two-hop neighbor storage: each of the NBL
// direct entries needs 5 bytes (4-byte ID + 1-byte MalC) plus its own
// announced list of ~NBL 4-byte IDs. The paper compresses this to
// NBLS ~= 5 (pi r^2 d)^2; we keep the exact decomposition
// 5*NBL + 4*NBL^2 (the paper's half-kilobyte example holds either way).
func (c CostParams) NeighborListBytes() float64 {
	nbl := c.NeighborListEntries()
	return float64(5*nbl) + float64(4*nbl*nbl)
}

// AlertBufferBytes returns the alert buffer size: gamma 4-byte entries.
func (c CostParams) AlertBufferBytes() float64 {
	return 4 * float64(c.Gamma)
}

// RepliesWatchedPerUnit returns how many route replies one node watches per
// time unit: the fraction of nodes inside the REP's bounding box
// (N_REP = 2 r^2 (h+1) d, the rectangle of Fig. 7) times the route rate.
func (c CostParams) RepliesWatchedPerUnit() float64 {
	if c.TotalNodes <= 0 {
		return 0
	}
	nrep := 2 * c.Range * c.Range * (c.AvgRouteHops + 1) * c.Density
	if nrep > float64(c.TotalNodes) {
		nrep = float64(c.TotalNodes)
	}
	return nrep / float64(c.TotalNodes) * c.RouteRate * nrep
}

// NodesWatchingReply returns N_REP, the nodes involved in watching one
// route reply (the bounding-box estimate of Fig. 7).
func (c CostParams) NodesWatchingReply() float64 {
	nrep := 2 * c.Range * c.Range * (c.AvgRouteHops + 1) * c.Density
	if c.TotalNodes > 0 && nrep > float64(c.TotalNodes) {
		nrep = float64(c.TotalNodes)
	}
	return nrep
}

// PacketsWatchedPerUnit returns the per-node watch load in packets per time
// unit: (N_REP / N) * f, doubled when route requests are watched too.
func (c CostParams) PacketsWatchedPerUnit() float64 {
	if c.TotalNodes <= 0 {
		return 0
	}
	per := float64(c.NodesWatchingReply() / float64(c.TotalNodes) * c.RouteRate)
	if c.WatchRequests {
		per *= 2
	}
	return per
}

// WatchBufferEntries returns the steady-state watch buffer occupancy:
// packets watched per unit times the entry lifetime.
func (c CostParams) WatchBufferEntries() float64 {
	return c.PacketsWatchedPerUnit() * c.WatchEntryLifetime
}

// WatchEntryBytes is the paper's 20-byte watch entry.
const WatchEntryBytes = 20

// WatchBufferBytes returns the watch buffer footprint.
func (c CostParams) WatchBufferBytes() float64 {
	return c.WatchBufferEntries() * WatchEntryBytes
}

// TotalMemoryBytes sums the LITEWORP storage at one node.
func (c CostParams) TotalMemoryBytes() float64 {
	return float64(c.NeighborListBytes()) + float64(c.AlertBufferBytes()) + float64(c.WatchBufferBytes())
}

// CostReport is a rendered cost-analysis row set.
type CostReport struct {
	NeighborCount      float64
	NeighborListBytes  float64
	AlertBufferBytes   float64
	WatchEntries       float64
	WatchBufferBytes   float64
	TotalMemoryBytes   float64
	PacketsWatchedRate float64
	NodesPerReply      float64
}

// Report evaluates the full cost model.
func (c CostParams) Report() CostReport {
	return CostReport{
		NeighborCount:      c.NeighborCount(),
		NeighborListBytes:  c.NeighborListBytes(),
		AlertBufferBytes:   c.AlertBufferBytes(),
		WatchEntries:       c.WatchBufferEntries(),
		WatchBufferBytes:   c.WatchBufferBytes(),
		TotalMemoryBytes:   c.TotalMemoryBytes(),
		PacketsWatchedRate: c.PacketsWatchedPerUnit(),
		NodesPerReply:      c.NodesWatchingReply(),
	}
}
