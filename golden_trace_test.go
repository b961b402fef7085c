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
// event counts (Kernel.Processed()) are allowed to change when housekeeping
// timers are restructured (e.g. per-record expiry timers collapsing onto a
// shared wheel), but the trace a run emits must not move by a single byte.
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
			name: "hopbyhop-rerr-30",
			mutate: func(p *Params) {
				p.NumNodes = 30
				p.Seed = 4242
				p.Duration = 120 * time.Second
				p.Routing = RoutingHopByHop
				p.RouteErrors = true
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

// Golden trace hashes (SHA-256 over the full JSONL trace). The first three
// were captured before the event-pressure rework; the airtime and fault
// cases before deliveries were batched into one kernel event per
// transmission. All are required to survive performance work unchanged.
const (
	goldenTraceProtected = "84a36cfdbce0dd4434d687da8d24786af2ed57dec101c7fff801aec7389cca99"
	goldenTraceBaseline  = "31ec827aa01106e432da1aa2aaa477a55f3ec982df7d2cbb776d32f0dba4b50a"
	goldenTraceHopByHop  = "af8f8c52bc5daf656f07bc33c626f85d7a8f22159fca2b0d5ac53de282b6c3f8"
	goldenTraceAirtime   = "2ea56230ab0267ec37fcd3de4170e245f816473da4d8164162397cbabe142afe"
	goldenTraceFaults    = "99ddc901d587dde6c867d8912a1b3a4283c43f4af88772808d3ccfdedd2f185b"
)

// TestGoldenTraceBackendInvariant runs the protected golden case on every
// selectable event-queue backend and requires the identical pinned hash:
// the choice must be a pure performance knob, invisible in the trace.
func TestGoldenTraceBackendInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	for _, queue := range []string{"calendar", "heap"} {
		t.Run("queue-"+queue, func(t *testing.T) {
			hash, _ := traceHash(t, func(p *Params) {
				p.NumNodes = 40
				p.Seed = 20250704
				p.Duration = 150 * time.Second
				p.EventQueue = queue
			}, nil)
			if hash != goldenTraceProtected {
				t.Errorf("backend %q drifted from the pinned trace:\n got  %s\n want %s",
					queue, hash, goldenTraceProtected)
			}
		})
	}
}
