package liteworp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// traceHash runs one scenario with tracing enabled and returns the SHA-256
// of the full JSONL trace — every transmission (rx/loss/tunnel), accusation,
// isolation and route record in order — plus the record count. A non-nil
// setup runs on the built scenario before it starts (fault injection).
func traceHash(t *testing.T, mutate func(*Params), setup func(*testing.T, *Scenario)) (string, int) {
	t.Helper()
	p := DefaultParams()
	if mutate != nil {
		mutate(&p)
	}
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.EnableTrace(&buf)
	if setup != nil {
		setup(t, s)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), bytes.Count(buf.Bytes(), []byte{'\n'})
}

// TestGoldenTraceBitIdentical pins the protocol-observable behavior of the
// simulator: the byte-exact transmission/accusation/isolation trace per
// seed. This is the invariant the performance work must preserve — kernel
// event counts (Kernel.Processed()) are allowed to change when the way
// records are reclaimed changes (e.g. sweep timers giving way to sweeps
// inside protocol events), but the trace a run emits must not move by a
// single byte.
//
// If a protocol-behavior change is intentional, re-pin the hashes with an
// explanation in the commit (mirroring goldenWant in golden_test.go).
func TestGoldenTraceBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	cases := []struct {
		name     string
		mutate   func(*Params)
		setup    func(*testing.T, *Scenario)
		wantHash string
		wantMin  int // sanity floor on record count
	}{
		{
			name: "protected-oob-40",
			mutate: func(p *Params) {
				p.NumNodes = 40
				p.Seed = 20250704
				p.Duration = 150 * time.Second
			},
			wantHash: goldenTraceProtected,
			wantMin:  10000,
		},
		{
			name: "baseline-no-liteworp-30",
			mutate: func(p *Params) {
				p.NumNodes = 30
				p.Seed = 99
				p.Duration = 120 * time.Second
				p.Liteworp = false
			},
			wantHash: goldenTraceBaseline,
			wantMin:  5000,
		},
		{
			name: "hopbyhop-30",
			mutate: func(p *Params) {
				p.NumNodes = 30
				p.Seed = 4242
				p.Duration = 120 * time.Second
				p.Routing = RoutingHopByHop
			},
			wantHash: goldenTraceHopByHop,
			wantMin:  5000,
		},
		{
			// The physical contention model with CSMA: deliveries carry
			// per-receiver airtime intervals, residual noise draws and the
			// addressed receiver's ARQ retransmissions.
			name: "airtime-csma-30",
			mutate: func(p *Params) {
				p.NumNodes = 30
				p.Seed = 777
				p.Duration = 120 * time.Second
				p.AirtimeChannel = true
			},
			wantHash: goldenTraceAirtime,
			wantMin:  5000,
		},
		{
			// Crashes with auto-reboot and flaps of real radio links:
			// frames in flight toward a node that crashes before they
			// arrive must evaporate at delivery time.
			name: "faults-crash-flap-30",
			mutate: func(p *Params) {
				p.NumNodes = 30
				p.Seed = 31337
				p.Duration = 120 * time.Second
			},
			setup:    injectCrashesAndFlaps,
			wantHash: goldenTraceFaults,
			wantMin:  5000,
		},
		{
			// Late joiners: nodes placed beside deployed ones during the
			// operational phase run the secure join handshake, and the
			// neighbors they join re-announce their lists.
			name: "dynamic-join-30",
			mutate: func(p *Params) {
				p.NumNodes = 30
				p.Seed = 2024
				p.Duration = 120 * time.Second
				p.DynamicJoin = true
			},
			setup:    scheduleJoiners,
			wantHash: goldenTraceDynamicJoin,
			wantMin:  5000,
		},
		{
			// The rival range-check detector in place of LITEWORP's.
			name: "detector-range-30",
			mutate: func(p *Params) {
				p.NumNodes = 30
				p.Seed = 5150
				p.Duration = 120 * time.Second
				p.Detector = "range"
			},
			wantHash: goldenTraceRange,
			wantMin:  5000,
		},
		{
			// The rival z-score detector in place of LITEWORP's.
			name: "detector-zscore-30",
			mutate: func(p *Params) {
				p.NumNodes = 30
				p.Seed = 6160
				p.Duration = 120 * time.Second
				p.Detector = "zscore"
			},
			wantHash: goldenTraceZScore,
			wantMin:  5000,
		},
		{
			// Encapsulation with three colluders: each endpoint holds two
			// tunnels, each delayed by its own multihop path length.
			name: "encap-30",
			mutate: func(p *Params) {
				p.NumNodes = 30
				p.Seed = 8080
				p.Duration = 120 * time.Second
				p.NumMalicious = 3
				p.Attack = AttackEncapsulation
			},
			wantHash: goldenTraceEncap,
			wantMin:  5000,
		},
		{
			// High-power transmission: the attacker's frames reach
			// stations beyond its radio range.
			name: "highpower-30",
			mutate: func(p *Params) {
				p.NumNodes = 30
				p.Seed = 9090
				p.Duration = 120 * time.Second
				p.NumMalicious = 1
				p.Attack = AttackHighPower
			},
			wantHash: goldenTraceHighPower,
			wantMin:  5000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hash, records := traceHash(t, tc.mutate, tc.setup)
			if records < tc.wantMin {
				t.Fatalf("trace suspiciously short: %d records, want >= %d", records, tc.wantMin)
			}
			t.Logf("%s: %d records, sha256 %s", tc.name, records, hash)
			if hash != tc.wantHash {
				t.Errorf("trace drifted:\n got  %s\n want %s\n"+
					"The transmission/accusation/isolation trace is pinned per seed; "+
					"if this change is intentional, update the golden hash and document why.",
					hash, tc.wantHash)
			}
		})
	}
}

// injectCrashesAndFlaps schedules crashes with auto-reboot and flaps of
// real radio links. Each crash pair is timed so the second victim, a radio
// neighbor of the first, goes down 1 ms after the first reboots: the
// rebooted node's discovery HELLO is then still on the air toward it and
// must evaporate at delivery time.
func injectCrashesAndFlaps(t *testing.T, s *Scenario) {
	t.Helper()
	const outage = 3 * time.Second
	ids := s.NodeIDs()
	plan := &FaultPlan{}
	for i := 0; i < len(ids); i += 4 {
		nbs := s.HonestNeighborsOf(ids[i])
		if len(nbs) == 0 {
			continue
		}
		at := time.Duration(i+1) * 2 * time.Second
		plan.Crash(at, outage, ids[i])
		plan.Crash(at+outage+time.Millisecond, 2*time.Second, nbs[len(nbs)-1])
	}
	flapped := 0
	for i := 1; i < len(ids) && flapped < 4; i += 5 {
		if nbs := s.HonestNeighborsOf(ids[i]); len(nbs) > 0 {
			plan.FlapLink(time.Duration(i)*3*time.Second, 5*time.Second, ids[i], nbs[0])
			flapped++
		}
	}
	if err := s.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
}

// scheduleJoiners adds four honest nodes during the operational phase, each
// placed beside a deployed node so that it has radio neighbors to join.
func scheduleJoiners(t *testing.T, s *Scenario) {
	t.Helper()
	ids := s.NodeIDs()
	for i := 0; i < 4; i++ {
		anchor := ids[(i*7)%len(ids)]
		at := s.OperationalStart() + time.Duration(10+15*i)*time.Second
		s.kernel.At(at, func() {
			ap, _ := s.Position(anchor)
			if _, err := s.AddNodeAt(ap.X+4, ap.Y+3); err != nil {
				t.Error(err)
			}
		})
	}
}

// Golden trace hashes (SHA-256 over the full JSONL trace). The first three
// were captured before the event-pressure rework; the airtime and fault
// cases before deliveries were batched into one kernel event per
// transmission; the rival-detector cases before their internal settings
// became constants. The dynamic-join case was re-pinned when joined nodes
// got the deployed nodes' trace hooks: its trace gained the joiners'
// accuse, alert-retry and isolate records (105 of them, 38,588 records
// to 38,693), and every earlier record kept its place and order. It was
// re-pinned again when the collision model stopped keeping its own copy of
// each node's degree, filled before the joins and never updated, and read
// the field's live degree instead: a joiner's neighbors now lose frames at
// the P_C of their grown degree (38,693 records to 37,803; the old code with
// only that read changed gives the same hash). The hop-by-hop case pinned
// hop-by-hop routing and RERR route repair together until route repair was
// deleted; it was re-pinned to the run without repair, measured on the code
// that still had it (23,991 records). All are required to survive
// performance work unchanged.
const (
	goldenTraceProtected   = "84a36cfdbce0dd4434d687da8d24786af2ed57dec101c7fff801aec7389cca99"
	goldenTraceBaseline    = "31ec827aa01106e432da1aa2aaa477a55f3ec982df7d2cbb776d32f0dba4b50a"
	goldenTraceHopByHop    = "551e6820c51232d51d6838dce79c7ca43d3f4d3cb1d022a1c940368a641131d2"
	goldenTraceAirtime     = "2ea56230ab0267ec37fcd3de4170e245f816473da4d8164162397cbabe142afe"
	goldenTraceFaults      = "99ddc901d587dde6c867d8912a1b3a4283c43f4af88772808d3ccfdedd2f185b"
	goldenTraceDynamicJoin = "b9f20639a6397f21a01123ca8bebdd80d7efceb25d96e2eedc30f3ae2580954c"
	goldenTraceRange       = "e861e81242a1e5f8ad8563a58de94ee673d2b8e97b74428b30a28080f4e5120b"
	goldenTraceZScore      = "f2ae421f8e7b58cbf6b9b6211e4bbd1ad9fbd2d1d8893fbdfd1644b299f7e9db"
	goldenTraceEncap       = "e9cbfd047e1928e21ad36b4caaa3b7baca34e0c7d90d67a2fdb848656d48a034"
	goldenTraceHighPower   = "978d5376dda5b7f6ee388c3e7c1ed5ac564b4fe71db2e3e31bf13c12186629c6"
)

// TestGoldenTraceBackendInvariant runs the protected golden case on the
// kernel's event queue (the binary heap; the subtest keeps the name of the
// calendar queue it replaced) and requires the pinned hash: the queue's
// internal layout must stay invisible in the trace.
func TestGoldenTraceBackendInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	t.Run("queue-calendar", func(t *testing.T) {
		hash, _ := traceHash(t, func(p *Params) {
			p.NumNodes = 40
			p.Seed = 20250704
			p.Duration = 150 * time.Second
		}, nil)
		if hash != goldenTraceProtected {
			t.Errorf("event queue drifted from the pinned trace:\n got  %s\n want %s",
				hash, goldenTraceProtected)
		}
	})
}
