package watch_test

import (
	"math"
	"testing"
	"time"

	"liteworp"
	"liteworp/internal/watch"
)

// TestDeadlineFootprintOnFlood runs a short N=400 flood, the storm of
// route requests in which every honest guard arms deadlines for its
// neighbors' forwards, and then sums every guard's deadline queue. The
// guards queue at most twice their waiting entries plus a page each, as
// the filter of met entries keeps them. The slots their pages and the
// log's spare pages hold are at most the queued entries plus two pages
// per guard, one for the unused ends of a guard's first and last pages
// and one spare. A queue that kept a burst's room, as a grow-and-trim
// slice does, holds about twice that.
func TestDeadlineFootprintOnFlood(t *testing.T) {
	take, stop := watch.Census()
	defer stop()
	p := liteworp.DefaultParams()
	p.Seed = 1
	p.NumNodes = 400
	p.AvgNeighbors = math.Max(p.AvgNeighbors, 1.5*math.Log(400))
	p.Duration = 3 * time.Second
	p.AttackStart = time.Second
	s, err := liteworp.NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	c := take()
	t.Logf("%+v", c)
	if c.Guards != p.NumNodes-p.NumMalicious || c.Queued == 0 || c.Waiting == 0 {
		t.Fatalf("census saw too little: %+v", c)
	}
	if limit := 2*c.Waiting + c.PageLen*c.Guards; c.Queued > limit {
		t.Fatalf("%d guards queue %d deadlines for %d waiting, limit %d", c.Guards, c.Queued, c.Waiting, limit)
	}
	if limit := c.Queued + 2*c.PageLen*c.Guards; c.Slots > limit {
		t.Fatalf("%d guards hold %d deadline slots for %d queued entries, limit %d", c.Guards, c.Slots, c.Queued, limit)
	}
}
