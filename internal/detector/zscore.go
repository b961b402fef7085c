package detector

import (
	"math"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/watch"
)

// The neighbor-count anomaly strategy's constants.
const (
	// zscoreZ is the z-score at or above which an announced neighbor
	// count is anomalous. Only positive deviations count: a wormhole
	// inflates tables (phantom links through the tunnel), it never thins
	// them.
	zscoreZ = 3
	// zscoreMinPeers is how many distinct announcers must have been heard
	// before any z-score is trusted (a two-sample "population" yields
	// meaningless statistics).
	zscoreMinPeers = 8
	// zscoreThreshold is how many anomalous announcements from the same
	// node cross into revocation: announcements are authenticated and
	// infrequent, so one clear outlier is the verdict.
	zscoreThreshold = 1
)

// zscoreDetector implements per-node neighbor-count Z-score comparison
// over announced neighbor tables (after arXiv 2505.09405): each node's
// announced degree is scored against the running population of announced
// degrees this host has heard; an announcement more than Z standard
// deviations above the mean is an anomaly.
//
// Each announcer's latest degree sits in its scoreboard slot, and the
// running mean/variance are maintained incrementally with integer sums —
// no floating-point accumulation order — so the verdicts are bitwise
// reproducible.
//
// Scope note: the strategy only sees discovery-plane evidence. A wormhole
// that tunnels routing traffic without inflating announced tables (the
// out-of-band and encapsulation modes in this simulator, where colluders
// announce their true neighborhoods) is invisible to it — exactly the
// blind spot the detector comparison quantifies.
type zscoreDetector struct {
	*scoreboard
	n     int // distinct announcers
	sum   int // sum of latest degrees
	sumsq int // sum of squared latest degrees
}

func newZScoreDetector(env Env) Detector {
	return &zscoreDetector{scoreboard: &scoreboard{env: env, threshold: zscoreThreshold}}
}

// Name returns KindZScore.
func (d *zscoreDetector) Name() string { return KindZScore }

// OwnSend is ignored: the strategy judges announced tables only.
func (d *zscoreDetector) OwnSend(*packet.Packet) {}

// Overheard is ignored: the strategy judges announced tables only.
func (d *zscoreDetector) Overheard(*packet.Packet, int32) {}

// Interference is ignored.
func (d *zscoreDetector) Interference() {}

// Announcement scores from's announced degree against the population of
// announced degrees heard so far. A node re-announcing (dynamic join,
// reboot) replaces its previous sample rather than double-counting it.
func (d *zscoreDetector) Announcement(from field.NodeID, degree int) {
	a := d.slot(from)
	if a.announced {
		d.sum -= a.degree
		d.sumsq -= a.degree * a.degree
	} else {
		a.announced = true
		d.n++
	}
	a.degree = degree
	d.sum += degree
	d.sumsq += degree * degree

	if d.n < zscoreMinPeers {
		return
	}
	mean := float64(d.sum) / float64(d.n)
	variance := float64(d.sumsq)/float64(d.n) - float64(mean*mean)
	if variance <= 0 {
		return // a uniform population has no outliers
	}
	if z := (float64(degree) - mean) / math.Sqrt(variance); z >= zscoreZ {
		d.accuse(from, watch.ReasonAnomaly, packet.Key{})
	}
}
