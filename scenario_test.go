package liteworp

import (
	"math"
	"strings"
	"testing"
	"time"

	"liteworp/internal/packet"
)

// fastParams returns a small, quick configuration for integration tests.
func fastParams() Params {
	p := DefaultParams()
	p.NumNodes = 50
	p.Duration = 200 * time.Second
	return p
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"too few nodes", func(p *Params) { p.NumNodes = 1 }},
		{"zero range", func(p *Params) { p.TxRange = 0 }},
		{"zero neighbors", func(p *Params) { p.AvgNeighbors = 0 }},
		{"negative malicious", func(p *Params) { p.NumMalicious = -1 }},
		{"malicious exceed nodes", func(p *Params) { p.NumMalicious = 100; p.NumNodes = 50 }},
		{"attack without mode", func(p *Params) { p.Attack = AttackNone; p.NumMalicious = 2 }},
		{"oob needs two", func(p *Params) { p.Attack = AttackOutOfBand; p.NumMalicious = 1 }},
		{"zero duration", func(p *Params) { p.Duration = 0 }},
		{"zero gamma", func(p *Params) { p.Gamma = 0 }},
	}
	for _, c := range cases {
		p := DefaultParams()
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid params", c.name)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

// TestValidateGuardsLayerParameters: the layers below Params run at the
// values they are given, so Validate rejects each one they cannot run at.
// The watch parameters are checked only with LITEWORP on; a zero REQ
// backoff stays legal (the rushing attacker runs with none).
func TestValidateGuardsLayerParameters(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero WatchTimeout", func(p *Params) { p.WatchTimeout = 0 }},
		{"zero FabricationIncrement", func(p *Params) { p.FabricationIncrement = 0 }},
		{"zero DropIncrement", func(p *Params) { p.DropIncrement = 0 }},
		{"zero MalCThreshold", func(p *Params) { p.MalCThreshold = 0 }},
		{"zero MalCWindow", func(p *Params) { p.MalCWindow = 0 }},
		{"zero RouteTimeout", func(p *Params) { p.RouteTimeout = 0 }},
		{"negative ForwardJitter", func(p *Params) { p.ForwardJitter = -time.Millisecond }},
		{"zero BandwidthBps", func(p *Params) { p.BandwidthBps = 0 }},
		{"high-power factor below 1", func(p *Params) { p.Attack = AttackHighPower; p.HighPowerFactor = 0.5 }},
		{"zero CollisionNB0", func(p *Params) { p.CollisionNB0 = 0 }},
		{"zero CollisionMax", func(p *Params) { p.CollisionMax = 0 }},
		{"CollisionMax above 1", func(p *Params) { p.CollisionMax = 1.5 }},
		{"negative PayloadBytes", func(p *Params) { p.PayloadBytes = -5 }},
		{"PayloadBytes above the wire limit", func(p *Params) { p.PayloadBytes = packet.MaxPayloadLen + 1 }},
		{"NaN DropProbability", func(p *Params) { p.DropProbability = math.NaN() }},
		{"NaN high-power factor", func(p *Params) { p.Attack = AttackHighPower; p.HighPowerFactor = math.NaN() }},
		{"negative Lambda", func(p *Params) { p.Lambda = -0.1 }},
		{"NaN Lambda", func(p *Params) { p.Lambda = math.NaN() }},
		{"infinite Lambda", func(p *Params) { p.Lambda = math.Inf(1) }},
		{"negative Mu", func(p *Params) { p.Mu = -0.005 }},
		{"NaN Mu", func(p *Params) { p.Mu = math.NaN() }},
		{"negative CollisionPc0", func(p *Params) { p.CollisionPc0 = -0.1 }},
		{"NaN CollisionPc0", func(p *Params) { p.CollisionPc0 = math.NaN() }},
		{"negative AttackStart", func(p *Params) { p.AttackStart = -time.Second }},
	}
	for _, c := range cases {
		p := DefaultParams()
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", c.name)
		}
	}
	p := DefaultParams()
	p.Liteworp = false
	p.WatchTimeout, p.FabricationIncrement, p.DropIncrement, p.MalCThreshold, p.MalCWindow = 0, 0, 0, 0, 0
	p.ForwardJitter = 0
	p.CollisionPc0, p.CollisionNB0, p.CollisionMax = 0, 0, 0
	p.Lambda, p.Mu, p.PayloadBytes, p.AttackStart = 0, 0, 0, 0
	if err := p.Validate(); err != nil {
		t.Fatalf("baseline without watch or collision parameters, traffic or REQ backoff rejected: %v", err)
	}
}

// TestDefaultParamsMatchTable2 pins the paper's Table 2 values, which
// DefaultParams alone states.
func TestDefaultParamsMatchTable2(t *testing.T) {
	p := DefaultParams()
	checks := []struct {
		name      string
		got, want any
	}{
		{"tau", p.WatchTimeout, 500 * time.Millisecond},
		{"V_f", p.FabricationIncrement, 3},
		{"V_d", p.DropIncrement, 1},
		{"C_t", p.MalCThreshold, 16},
		{"T", p.MalCWindow, 200 * time.Second},
		{"gamma", p.Gamma, 2},
		{"TOutRoute", p.RouteTimeout, 50 * time.Second},
		{"bandwidth", p.BandwidthBps, 40_000.0},
		{"lambda", p.Lambda, 0.1},
		{"mu", p.Mu, 0.005},
		{"REQ backoff", p.ForwardJitter, 30 * time.Millisecond},
		{"payload", p.PayloadBytes, 32},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestBaselineHealthyNetwork(t *testing.T) {
	p := fastParams()
	p.Liteworp = false
	p.NumMalicious = 0
	p.Attack = AttackNone
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.DataOriginated == 0 {
		t.Fatal("no traffic generated")
	}
	if r.DeliveryRatio < 0.95 {
		t.Fatalf("healthy baseline delivery = %.3f, want >= 0.95", r.DeliveryRatio)
	}
	if r.RoutesEstablished == 0 {
		t.Fatal("no routes established")
	}
	if r.Accusations != 0 || r.FalseIsolations != 0 {
		t.Fatalf("baseline produced detections: %+v", r)
	}
}

func TestLiteworpCleanNetworkNoFalseIsolations(t *testing.T) {
	p := fastParams()
	p.NumMalicious = 0
	p.Attack = AttackNone
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveryRatio < 0.9 {
		t.Fatalf("clean LITEWORP delivery = %.3f, want >= 0.9", r.DeliveryRatio)
	}
	if r.FalseIsolations != 0 {
		t.Fatalf("clean network produced %d false isolations", r.FalseIsolations)
	}
}

func TestOutOfBandWormholeDetectedAndIsolated(t *testing.T) {
	p := fastParams()
	p.NumMalicious = 2
	p.Attack = AttackOutOfBand
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Malicious) != 2 {
		t.Fatalf("malicious outcomes = %d", len(r.Malicious))
	}
	for _, m := range r.Malicious {
		if !m.Detected {
			t.Fatalf("attacker %d undetected: %+v", m.ID, m)
		}
		if !m.FullyIsolated {
			t.Fatalf("attacker %d not fully isolated: %+v", m.ID, m)
		}
		// Paper: isolation within a very short period (< 30 s).
		if m.IsolationLatency > 60*time.Second {
			t.Fatalf("attacker %d isolation took %v", m.ID, m.IsolationLatency)
		}
	}
	if r.DetectionRatio != 1 {
		t.Fatalf("DetectionRatio = %g", r.DetectionRatio)
	}
	// After isolation the damage is bounded: fraction dropped stays low.
	if r.FractionDropped > 0.1 {
		t.Fatalf("fraction dropped with LITEWORP = %.3f", r.FractionDropped)
	}
}

func TestEncapsulationWormholeDetected(t *testing.T) {
	p := fastParams()
	p.NumMalicious = 2
	p.Attack = AttackEncapsulation
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range r.Malicious {
		if !m.Detected {
			t.Fatalf("encapsulation attacker %d undetected", m.ID)
		}
	}
}

func TestBaselineWormholeCausesDamage(t *testing.T) {
	p := fastParams()
	p.Liteworp = false
	p.NumMalicious = 2
	p.Attack = AttackOutOfBand
	p.Seed = 3
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.DataDroppedAttack == 0 {
		t.Fatal("unprotected wormhole dropped nothing")
	}
	if r.WormholeRoutes == 0 {
		t.Fatal("wormhole captured no routes in the baseline")
	}
	// Nothing detects anything without LITEWORP.
	if r.Accusations != 0 {
		t.Fatalf("baseline produced %d accusations", r.Accusations)
	}
	for _, m := range r.Malicious {
		if m.Detected {
			t.Fatal("baseline detected an attacker")
		}
	}
}

func TestLiteworpReducesDamageVsBaseline(t *testing.T) {
	run := func(protect bool) *Results {
		p := fastParams()
		p.Liteworp = protect
		p.NumMalicious = 2
		p.Attack = AttackOutOfBand
		p.Seed = 7
		p.Duration = 300 * time.Second
		s, err := NewScenario(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run(false)
	lw := run(true)
	if base.DataDroppedAttack == 0 {
		t.Skip("baseline wormhole captured no traffic under this seed")
	}
	if lw.DataDroppedAttack >= base.DataDroppedAttack {
		t.Fatalf("LITEWORP dropped %d >= baseline %d",
			lw.DataDroppedAttack, base.DataDroppedAttack)
	}
	if lw.DeliveryRatio <= base.DeliveryRatio {
		t.Fatalf("LITEWORP delivery %.3f <= baseline %.3f",
			lw.DeliveryRatio, base.DeliveryRatio)
	}
}

func TestHighPowerAttackNeutralizedByLiteworp(t *testing.T) {
	p := fastParams()
	p.NumMalicious = 1
	p.Attack = AttackHighPower
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	mal := s.MaliciousIDs()[0]
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The high-power REQ copies land at non-neighbors, which reject them
	// (non-neighbor check). The attacker cannot expand its reach.
	att := s.Node(mal).Attacker()
	if att.Stats().HighPowerTxs == 0 {
		t.Fatal("high-power attacker never transmitted")
	}
	// Rejections are counted at honest nodes.
	var rejected uint64
	for _, id := range s.NodeIDs() {
		if e := s.Node(id).Engine(); e != nil {
			rejected += e.Stats().RejectedNonNeighbor
		}
	}
	if rejected == 0 {
		t.Fatal("no non-neighbor rejections despite high-power floods")
	}
	_ = r
}

func TestRushingAttackNotDetected(t *testing.T) {
	// The paper's admitted gap: protocol deviation cannot be caught by
	// local monitoring.
	p := fastParams()
	p.NumMalicious = 1
	p.Attack = AttackRushing
	p.Seed = 5
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range r.Malicious {
		if m.FullyIsolated {
			t.Fatalf("rushing attacker %d was isolated — LITEWORP should not catch mode 5", m.ID)
		}
	}
}

func TestRelayAttackBlockedByNeighborCheck(t *testing.T) {
	p := fastParams()
	p.NumMalicious = 1
	p.Attack = AttackRelay
	p.Seed = 11
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	mal := s.MaliciousIDs()[0]
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With LITEWORP, replayed frames from out-of-range senders are
	// rejected by the non-neighbor/unknown-link checks, so no phantom
	// route through the relay's fake links forms. (The relay may still
	// appear on genuine routes as a normal forwarder.)
	att := s.Node(mal).Attacker()
	if att.Stats().Replays == 0 {
		t.Fatal("relay attacker never replayed")
	}
	_ = r
}

func TestDeterministicScenario(t *testing.T) {
	run := func() string {
		p := fastParams()
		p.Duration = 100 * time.Second
		s, err := NewScenario(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.String()
	}
	if run() != run() {
		t.Fatal("scenario nondeterministic under equal seeds")
	}
}

func TestSeedsChangeOutcomes(t *testing.T) {
	run := func(seed int64) uint64 {
		p := fastParams()
		p.Seed = seed
		p.Duration = 60 * time.Second
		s, err := NewScenario(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.DataOriginated
	}
	if run(1) == run(2) && run(3) == run(4) {
		t.Fatal("different seeds produced identical outputs — suspicious")
	}
}

func TestRunTwiceFails(t *testing.T) {
	p := fastParams()
	p.Duration = 10 * time.Second
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestRunForIncremental(t *testing.T) {
	p := fastParams()
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(s.OperationalStart() + 30*time.Second); err != nil {
		t.Fatal(err)
	}
	early := s.Results()
	if err := s.RunFor(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	late := s.Results()
	if late.DataOriginated <= early.DataOriginated {
		t.Fatal("no additional traffic between snapshots")
	}
	if late.Now <= early.Now {
		t.Fatal("clock did not advance")
	}
}

func TestScenarioAccessors(t *testing.T) {
	p := fastParams()
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.NodeIDs()) != p.NumNodes {
		t.Fatalf("NodeIDs = %d", len(s.NodeIDs()))
	}
	mal := s.MaliciousIDs()
	if len(mal) != p.NumMalicious {
		t.Fatalf("MaliciousIDs = %v", mal)
	}
	for _, m := range mal {
		if s.Node(m) == nil || !s.Node(m).Malicious() {
			t.Fatalf("node %d should be malicious", m)
		}
		hn := s.HonestNeighborsOf(m)
		if len(hn) == 0 {
			t.Fatalf("attacker %d has no honest neighbors", m)
		}
		for _, h := range hn {
			if s.Node(h).Malicious() {
				t.Fatal("malicious node in honest neighbor list")
			}
		}
	}
	if s.AttackTime() <= s.OperationalStart() {
		t.Fatal("attack scheduled before operational phase")
	}
}

func TestResultsString(t *testing.T) {
	p := fastParams()
	p.Duration = 30 * time.Second
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"liteworp run", "data:", "routes:", "detection:", "attacker"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Results.String missing %q:\n%s", want, out)
		}
	}
}

func TestResultsDroppedAtMonotone(t *testing.T) {
	p := fastParams()
	p.Liteworp = false
	p.Seed = 3
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for ts := 10 * time.Second; ts < r.Now; ts += 10 * time.Second {
		v := r.DroppedAt(ts)
		if v < prev {
			t.Fatalf("cumulative drops decreased: %g -> %g at %v", prev, v, ts)
		}
		prev = v
	}
}

func TestAttackModeStrings(t *testing.T) {
	modes := []AttackMode{AttackNone, AttackEncapsulation, AttackOutOfBand, AttackHighPower, AttackRelay, AttackRushing}
	seen := map[string]bool{}
	for _, m := range modes {
		s := m.String()
		if s == "" || seen[s] {
			t.Fatalf("mode %d has bad/duplicate name %q", m, s)
		}
		seen[s] = true
	}
}

func TestMaxIsolationLatency(t *testing.T) {
	r := &Results{Malicious: []MaliciousOutcome{
		{ID: 1, FullyIsolated: true, IsolationLatency: 5 * time.Second},
		{ID: 2, FullyIsolated: true, IsolationLatency: 9 * time.Second},
	}}
	lat, all := r.MaxIsolationLatency()
	if !all || lat != 9*time.Second {
		t.Fatalf("MaxIsolationLatency = %v,%v", lat, all)
	}
	r.Malicious = append(r.Malicious, MaliciousOutcome{ID: 3})
	if _, all := r.MaxIsolationLatency(); all {
		t.Fatal("all=true with an unisolated attacker")
	}
}

func TestEnableTraceProducesRecords(t *testing.T) {
	p := fastParams()
	p.Duration = 20 * time.Second
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	tw := s.EnableTrace(&buf)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tw.Err() != nil {
		t.Fatal(tw.Err())
	}
	if tw.Count() == 0 {
		t.Fatal("no trace records")
	}
	out := buf.String()
	for _, want := range []string{`"kind":"rx"`, `"pkt":"HELLO"`, `"pkt":"REQ"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s", want)
		}
	}
	// One JSON object per line.
	first := out[:strings.IndexByte(out, '\n')]
	if !strings.HasPrefix(first, "{") || !strings.HasSuffix(first, "}") {
		t.Fatalf("not JSONL: %q", first)
	}
}

func TestEnableTraceNilDisables(t *testing.T) {
	p := fastParams()
	p.Duration = 5 * time.Second
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if tw := s.EnableTrace(nil); tw != nil {
		t.Fatal("nil writer returned a tracer")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthOverheadIsLightweight(t *testing.T) {
	// The paper's headline: LITEWORP's bandwidth cost is confined to
	// one-time discovery plus alerts after detection. Over a long run the
	// overhead fraction must keep shrinking as routing/data traffic
	// accumulates.
	p := fastParams()
	p.NumMalicious = 2
	p.Attack = AttackOutOfBand
	p.Duration = 400 * time.Second
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	bw := r.Bandwidth
	if bw.TotalBytes == 0 || bw.DiscoveryBytes == 0 || bw.ControlBytes == 0 || bw.DataBytes == 0 {
		t.Fatalf("breakdown incomplete: %+v", bw)
	}
	if bw.AlertBytes == 0 {
		t.Fatal("detections occurred but no alert bytes counted")
	}
	if got := bw.OverheadFraction(); got > 0.25 {
		t.Fatalf("LITEWORP overhead fraction = %.3f of on-air bytes", got)
	}
	// Discovery dominates the overhead; alerts are a sliver.
	if bw.AlertBytes > bw.DiscoveryBytes {
		t.Fatalf("alerts (%d B) exceed one-time discovery (%d B)", bw.AlertBytes, bw.DiscoveryBytes)
	}
}

func TestSmartAttackerStillCaughtByFabrication(t *testing.T) {
	// The paper's "smarter M2" evades REP-drop detection with cover
	// transmissions, but its fabricated re-injections still convict it.
	p := fastParams()
	p.NumMalicious = 2
	p.Attack = AttackOutOfBand
	p.SmartAttacker = true
	p.Duration = 300 * time.Second
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range r.Malicious {
		if !m.Detected {
			t.Fatalf("smart attacker %d evaded detection entirely", m.ID)
		}
	}
	// The cover copies actually happened.
	var covers uint64
	for _, id := range s.MaliciousIDs() {
		covers += s.Node(id).Attacker().Stats().CoverTransmissions
	}
	if covers == 0 {
		t.Skip("no REP crossed the wormhole in this seed")
	}
}

func TestValidateDropProbability(t *testing.T) {
	p := DefaultParams()
	p.DropProbability = 1.5
	if err := p.Validate(); err == nil {
		t.Fatal("DropProbability > 1 accepted")
	}
	p.DropProbability = -0.1
	if err := p.Validate(); err == nil {
		t.Fatal("negative DropProbability accepted")
	}
	p.DropProbability = 0.5
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
