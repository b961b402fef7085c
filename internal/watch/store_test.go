package watch

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// The differential suite: a randomized operation script is replayed
// against a buffer on flatStore and on the Go-map oracle, and every
// observable output — method returns, query results, accusation and
// threshold streams, stats, and virtual timestamps — must match entry for
// entry. The script mixes bursts (to cross open-addressing and slab
// capacity boundaries in both directions), long idle stretches (so the
// expiry wheel sweeps and the tables and slab shrink), floods heard from
// more senders than one slab chunk holds, senders of one packet that
// expire at different sweeps, and reboots (buffer recreation mid-run, with
// the old incarnation's timers still firing).

// diffOps is the script length per seed; diffSeeds the number of seeds.
const (
	diffOps   = 500
	diffSeeds = 24
)

// storeCtor builds a buffer on one storage layout: New, or newMapBuffer.
type storeCtor func(sim.Clock, Config, func(Accusation), func(field.NodeID)) *Buffer

// runStoreScript replays the op script derived from seed against buffers
// built by ctor and returns the observation log.
func runStoreScript(ctor storeCtor, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	kernel := sim.New(seed + 1)
	var log []string
	gen := 0

	cfg := Config{
		Timeout:              50 * time.Millisecond,
		CacheTTL:             200 * time.Millisecond,
		Window:               2 * time.Second,
		Threshold:            5,
		FabricationIncrement: 3,
		DropIncrement:        1,
	}
	// Half the seeds sweep on a wheel finer than CacheTTL, so the senders
	// of one packet, recorded a few ticks apart, expire at different
	// sweeps; the rest keep the default one-second wheel.
	fineWheel := rng.Intn(2) == 0
	var b *Buffer
	boot := func() {
		g := gen
		if fineWheel {
			cfg.Wheel = sim.NewWheel(kernel, 20*time.Millisecond)
		}
		b = ctor(kernel, cfg,
			func(a Accusation) {
				log = append(log, fmt.Sprintf("g%d acc %d %v %d %v %v", g, a.Accused, a.Reason, a.MalC, a.Key, a.At))
			},
			func(id field.NodeID) {
				log = append(log, fmt.Sprintf("g%d thr %d", g, id))
			})
	}
	boot()

	// Twenty neighbors: a packet heard from many of them spans several
	// slab chunks.
	node := func() field.NodeID { return field.NodeID(1 + rng.Intn(20)) }
	somekey := func() packet.Key {
		types := []packet.Type{packet.TypeRouteRequest, packet.TypeRouteReply, packet.TypeData}
		return packet.Key{
			Type:   types[rng.Intn(len(types))],
			Origin: field.NodeID(1 + rng.Intn(4)),
			Seq:    uint64(rng.Intn(24)),
		}
	}
	query := func(tag string, n field.NodeID, k packet.Key) {
		log = append(log, fmt.Sprintf("%s %v %v %d", tag, b.Heard(n, k), b.HeardAny(k), b.Len()))
	}

	for op := 0; op < diffOps; op++ {
		switch rng.Intn(16) {
		case 0, 1:
			b.RecordHeard(node(), somekey())
		case 2, 3:
			log = append(log, fmt.Sprintf("exp %v", b.Expect(node(), somekey())))
		case 4, 5:
			log = append(log, fmt.Sprintf("fwd %v", b.RecordHeard(node(), somekey())))
		case 6:
			query("qry", node(), somekey())
		case 7:
			b.AccuseFabrication(node(), somekey())
		case 8:
			n := node()
			log = append(log, fmt.Sprintf("mal %d %v", b.MalC(n), b.ThresholdFired(n)))
		case 9:
			// Advance virtual time: deadlines expire (drop accusations),
			// wheel sweeps reclaim caches and MalC records.
			kernel.RunFor(time.Duration(rng.Intn(400)) * time.Millisecond)
		case 10:
			// Burst: drive the tables across a capacity boundary, then on a
			// later idle stretch the sweep takes them back down (shrink).
			base := uint64(1000 * (op + 1))
			for i := uint64(0); i < uint64(64+rng.Intn(64)); i++ {
				k := packet.Key{Type: packet.TypeRouteRequest, Origin: node(), Seq: base + i}
				b.RecordHeard(node(), k)
				if i%4 == 0 {
					b.Expect(node(), k)
				}
			}
			log = append(log, fmt.Sprintf("burst %d", b.Len()))
		case 11:
			if rng.Intn(4) == 0 {
				// Reboot: a fresh incarnation takes over; the dead one's
				// timers still fire and must behave identically on both
				// stores.
				gen++
				boot()
				log = append(log, fmt.Sprintf("boot g%d", gen))
			}
		case 12:
			// Flood: one packet heard from up to twenty senders a few
			// ticks apart, so its sender list spans chunks and its
			// senders expire at different sweeps; the first sender is
			// heard again partway. Then queries and expectations as the
			// record ages.
			k := packet.Key{Type: packet.TypeRouteRequest, Origin: node(), Seq: uint64(1_000_000 + op)}
			senders := 1 + rng.Intn(20)
			first := node()
			for i := 0; i < senders; i++ {
				s := first
				if i > 0 {
					s = node()
				}
				b.RecordHeard(s, k)
				if i == senders/2 {
					b.RecordHeard(first, k)
				}
				kernel.RunFor(time.Duration(rng.Intn(30)) * time.Millisecond)
			}
			for step := 0; step < 4; step++ {
				kernel.RunFor(time.Duration(rng.Intn(120)) * time.Millisecond)
				n := node()
				query("fld", n, k)
				log = append(log, fmt.Sprintf("fexp %v", b.Expect(n, k)))
			}
		case 13:
			// Re-record: one sender heard again on the same packet, the
			// second time after its first record has aged.
			n, k := node(), somekey()
			b.RecordHeard(n, k)
			kernel.RunFor(time.Duration(rng.Intn(250)) * time.Millisecond)
			b.RecordHeard(n, k)
			query("rer", n, k)
		case 14:
			// Expect on a packet no one was heard transmitting.
			k := packet.Key{Type: packet.TypeRouteReply, Origin: node(), Seq: uint64(2_000_000 + op)}
			log = append(log, fmt.Sprintf("nexp %v", b.Expect(node(), k)))
			query("nqry", node(), k)
		case 15:
			// A packet whose first sender has expired while a later one is
			// live, queried across the sweep that passes between them.
			k := somekey()
			a, c := node(), node()
			b.RecordHeard(a, k)
			kernel.RunFor(cfg.CacheTTL / 2)
			b.RecordHeard(c, k)
			kernel.RunFor(cfg.CacheTTL/2 + time.Duration(rng.Intn(60))*time.Millisecond)
			query("part", a, k)
			query("part", c, k)
			log = append(log, fmt.Sprintf("pexp %v %v", b.Expect(a, k), b.Expect(c, k)))
		}
	}
	kernel.RunFor(5 * time.Second) // drain every deadline and sweep
	st := b.Stats()
	log = append(log, fmt.Sprintf("stats %+v len %d", st, b.Len()))
	return log
}

func diffCompare(t *testing.T, seed int64) {
	t.Helper()
	flat := runStoreScript(New, seed)
	ref := runStoreScript(newMapBuffer, seed)
	if len(flat) != len(ref) {
		t.Fatalf("seed %d: log lengths diverge: flat %d vs map %d", seed, len(flat), len(ref))
	}
	for i := range ref {
		if flat[i] != ref[i] {
			t.Fatalf("seed %d: logs diverge at entry %d:\n flat: %s\n map:  %s", seed, i, flat[i], ref[i])
		}
	}
}

// TestWatchStoreEquivalence is the randomized map-vs-flat differential
// suite: diffSeeds seeds, diffOps operations each.
func TestWatchStoreEquivalence(t *testing.T) {
	for seed := int64(1); seed <= diffSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			diffCompare(t, seed)
		})
	}
}

// FuzzWatchStoreEquivalence lets the fuzzer hunt for a seed whose script
// splits flatStore from the oracle.
func FuzzWatchStoreEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffCompare(t, seed)
	})
}

// checkSlab verifies flatStore's bookkeeping: every chunk below top is on
// exactly one record's chain or on the free list, used counts the chained
// ones, a chain is as long as its record's sender count needs, every
// record is reachable through keys at its own position, and the pages
// cover top.
func checkSlab(t *testing.T, s *flatStore) {
	t.Helper()
	seen := make([]bool, s.top)
	mark := func(c int32, what string) {
		if c < 0 || c >= s.top {
			t.Fatalf("%s chunk %d outside [0, %d)", what, c, s.top)
		}
		if seen[c] {
			t.Fatalf("chunk %d is on two lists", c)
		}
		seen[c] = true
	}
	chained := int32(0)
	for i := int32(0); i < s.nrecs; i++ {
		r := s.recs.at(i)
		n := int32(0)
		for c := r.head; c != noChunk; c = s.chunks.at(c).next {
			mark(c, "chained")
			n++
		}
		if want := (r.n + chunkSlots - 1) / chunkSlots; n != want {
			t.Fatalf("record %d: %d senders on %d chunks, want %d chunks", i, r.n, n, want)
		}
		chained += n
		if ri, ok := s.keys.Get(r.key); !ok || ri != i {
			t.Fatalf("record %d: keys maps its key to %d (present %v)", i, ri, ok)
		}
	}
	if chained != s.used {
		t.Fatalf("%d chunks chained, used says %d", chained, s.used)
	}
	for c := s.free; c != noChunk; c = s.chunks.at(c).next {
		mark(c, "free")
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("chunk %d is neither chained nor free", c)
		}
	}
	if s.keys.Len() != int(s.nrecs) {
		t.Fatalf("keys holds %d entries for %d records", s.keys.Len(), s.nrecs)
	}
	if int(s.top) > len(s.chunks.pages)*pageSize || int(s.nrecs) > len(s.recs.pages)*pageSize {
		t.Fatalf("pages do not cover top %d / %d records", s.top, s.nrecs)
	}
}

// TestSlabAccounting drives a flatStore through bursts of floods and idle
// stretches, sweeping as it goes, and checks the slab's bookkeeping after
// every sweep; once everything has expired, the pages are handed back.
func TestSlabAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := newFlatStore()
	now := time.Duration(0)
	const ttl = 50
	peak := 0
	for round := 0; round < 400; round++ {
		floods := rng.Intn(4)
		if round%50 < 10 {
			floods = 40 + rng.Intn(40) // a burst
		}
		for f := 0; f < floods; f++ {
			k := packet.Key{Type: packet.TypeRouteRequest, Origin: field.NodeID(1 + rng.Intn(30)), Seq: uint64(rng.Intn(200))}
			for range 1 + rng.Intn(14) {
				s.recordHeard(int32(rng.Intn(20)), k, now+ttl)
			}
		}
		peak = max(peak, len(s.chunks.pages))
		now += time.Duration(1 + rng.Intn(10))
		s.sweepCaches(now)
		checkSlab(t, s)
	}
	s.sweepCaches(now + ttl)
	checkSlab(t, s)
	if s.nrecs != 0 || s.used != 0 {
		t.Fatalf("%d records, %d chunks left after everything expired", s.nrecs, s.used)
	}
	if len(s.chunks.pages) > keep(0) || len(s.recs.pages) > keep(0) || peak <= keep(0) {
		t.Fatalf("pages not handed back: %d chunk pages (peak %d), %d record pages",
			len(s.chunks.pages), peak, len(s.recs.pages))
	}
}
