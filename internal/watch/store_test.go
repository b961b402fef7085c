package watch

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// The differential suite: a randomized operation script is replayed
// against a buffer on logStore and on the Go-map oracle, and every
// observable output — method returns, query results, accusation and
// threshold streams, stats, and virtual timestamps — must match entry for
// entry. The script mixes bursts (to cross open-addressing and page
// capacity boundaries in both directions), long idle stretches (so the
// log pops and, at the next new records, the store sweeps and its tables
// shrink), floods heard from many senders, senders of one packet that
// expire at different times, forwards racing their deadlines, deadlines
// that outlive their packet's senders, own sends, and reboots (buffer
// recreation mid-run on the same log, with the old incarnation's timers
// still firing). A peer
// guard on the same log records many of the same transmissions, in the
// same batches, so its facts share entries with the guard's; on half the
// seeds every sender's receiver list is crowded first, so the guard's
// receptions go to the log's overflow set. The map oracle never answers
// an expectation early, so the script also drives the settled fast path
// against the slow path: neighborhoods wider than its masks, a sender
// whose heard fact dies on a packet that later copies keep alive, and a
// forwarder expected again after a drop.

// diffOps is the script length per seed; diffSeeds the number of seeds.
const (
	diffOps   = 500
	diffSeeds = 24
)

// storeCtor builds a buffer on one storage layout: New, or newMapBuffer.
// The map oracle ignores Config.Log and Config.Self.
type storeCtor func(sim.Clock, Config, func(Accusation), func(field.NodeID)) *Buffer

// runStoreScript replays the op script derived from seed against buffers
// built by ctor and returns the observation log. After every op it checks
// the live buffer's deadline queue (see checkQueue). On logStore, it also
// checks that a sweep freed records at least once: the only way a store's
// record count falls.
func runStoreScript(tb testing.TB, ctor storeCtor, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	kernel := sim.New(seed + 1)
	var log []string
	gen := 0

	// Heard facts live ttl, ten tau: 200 ms.
	cfg := Config{
		Timeout:              20 * time.Millisecond,
		Window:               2 * time.Second,
		Threshold:            5,
		FabricationIncrement: 3,
		DropIncrement:        1,
	}
	ttl := cfg.cacheTTL()
	// The guard is node 99 on a log it shares with peer 98; node 99 among
	// the senders is the guard's own send.
	const self, peerID = field.NodeID(99), field.NodeID(98)
	shared := NewLog(kernel)
	if rng.Intn(2) == 0 {
		for s := field.NodeID(1); s <= 48; s++ {
			for r := range maskBits + 4 {
				shared.place(s, field.NodeID(1000+r), true)
			}
		}
	}
	cfg.Log, cfg.Self = shared, self
	peerCfg := cfg
	peerCfg.Self = peerID
	peer := ctor(kernel, peerCfg, nil, nil)
	var b *Buffer
	var lastRecs int32 // the live store's record count after the last op
	freed := false
	boot := func() {
		g := gen
		lastRecs = 0
		b = ctor(kernel, cfg,
			func(a Accusation) {
				log = append(log, fmt.Sprintf("g%d acc %d %v %d %v %v", g, a.Accused, a.Reason, a.MalC, a.Key, a.At))
			},
			func(id field.NodeID) {
				log = append(log, fmt.Sprintf("g%d thr %d", g, id))
			})
		if g > 0 {
			// A rebooted node's rediscovery interns its neighborhood again,
			// so queries about the old incarnation's senders reach the log,
			// where only the incarnation stamp hides the old facts.
			for id := field.NodeID(1); id <= 48; id++ {
				b.Intern(id)
			}
		}
	}
	boot()

	// Twenty neighbors: a packet heard from many of them spans several
	// a long chain of log entries. wide draws from 48, so the dense indexes the buffer
	// interns them at pass the settled mask's width.
	node := func() field.NodeID { return field.NodeID(1 + rng.Intn(20)) }
	// hear records s sending k at the guard and, half the time, at the
	// peer in the same batch.
	// lastS and lastK are the last transmission hear recorded, the fact
	// a reboot must hide from the new incarnation; a zero lastK means
	// none yet (no packet has a zero type).
	var lastS field.NodeID
	var lastK packet.Key
	hear := func(s field.NodeID, k packet.Key) bool {
		met := b.RecordHeard(s, k)
		lastS, lastK = s, k
		if rng.Intn(2) == 0 {
			peer.RecordHeard(s, k)
		}
		return met
	}
	wide := func() field.NodeID { return field.NodeID(1 + rng.Intn(48)) }
	// other draws a node other than n.
	other := func(n field.NodeID) field.NodeID {
		for {
			if o := node(); o != n {
				return o
			}
		}
	}
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

	afterOp := func() {
		checkQueue(tb, b)
		if s, ok := b.store.(*logStore); ok {
			freed = freed || s.nrecs < lastRecs
			lastRecs = s.nrecs
		}
	}
	for op := 0; op < diffOps; op++ {
		if op > 0 {
			afterOp()
		}
		switch rng.Intn(20) {
		case 0:
			hear(node(), somekey())
		case 1:
			// An own send, or a transmission only the peer hears.
			if rng.Intn(2) == 0 {
				b.RecordHeard(self, somekey())
			} else {
				peer.RecordHeard(node(), somekey())
			}
		case 2, 3:
			log = append(log, fmt.Sprintf("exp %v", b.Expect(node(), somekey())))
		case 4, 5:
			log = append(log, fmt.Sprintf("fwd %v", hear(node(), somekey())))
		case 6:
			query("qry", node(), somekey())
		case 7:
			b.AccuseFabrication(node(), somekey())
		case 8:
			n := node()
			log = append(log, fmt.Sprintf("mal %d %v", b.MalC(n), b.ThresholdFired(n)))
		case 9:
			// Advance virtual time: deadlines expire (drop accusations),
			// facts and MalC observations age out.
			kernel.RunFor(time.Duration(rng.Intn(400)) * time.Millisecond)
		case 10:
			// Burst: drive the tables across a capacity boundary, then a
			// later sweep takes them back down (shrink).
			// Then the forwards of all but every fifth armed expectation are
			// heard, latest first, and never the first one's: met entries
			// come to outnumber waiting ones behind a waiting head.
			base := uint64(1000 * (op + 1))
			type armed struct {
				f field.NodeID
				k packet.Key
			}
			var burst []armed
			for i := uint64(0); i < uint64(64+rng.Intn(64)); i++ {
				k := packet.Key{Type: packet.TypeRouteRequest, Origin: node(), Seq: base + i}
				b.RecordHeard(node(), k)
				if i%2 == 0 {
					if f := node(); b.Expect(f, k) {
						burst = append(burst, armed{f, k})
					}
				}
			}
			log = append(log, fmt.Sprintf("burst %d", b.Len()))
			for i := len(burst) - 1; i >= 0; i-- {
				if i%5 != 0 {
					log = append(log, fmt.Sprintf("bfwd %v", b.RecordHeard(burst[i].f, burst[i].k)))
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
				if lastK.Type != 0 {
					query("boot", lastS, lastK)
					log = append(log, fmt.Sprintf("bexp %v", b.Expect(lastS, lastK)))
				}
			}
		case 12:
			// Flood: one packet heard from up to twenty senders a few
			// ticks apart, so its entries span batches and its
			// senders expire at different times; the first sender is
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
				hear(s, k)
				if i == senders/2 {
					hear(first, k)
				}
				kernel.RunFor(time.Duration(rng.Intn(30)) * time.Millisecond)
			}
			for step := 0; step < 4; step++ {
				kernel.RunFor(time.Duration(rng.Intn(120)) * time.Millisecond)
				n := node()
				query("fld", n, k)
				query("own", self, k)
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
			// live, queried about both.
			k := somekey()
			a, c := node(), node()
			b.RecordHeard(a, k)
			kernel.RunFor(ttl / 2)
			b.RecordHeard(c, k)
			kernel.RunFor(ttl/2 + time.Duration(rng.Intn(60))*time.Millisecond)
			query("part", a, k)
			query("part", c, k)
			log = append(log, fmt.Sprintf("pexp %v %v", b.Expect(a, k), b.Expect(c, k)))
		case 16:
			// Expect/forward race on one record: expectations on several
			// forwarders of a packet heard once, then each forward heard
			// before, at or after its deadline, queried as it lands.
			k := packet.Key{Type: packet.TypeRouteRequest, Origin: node(), Seq: uint64(3_000_000 + op)}
			b.RecordHeard(node(), k)
			fwds := make([]field.NodeID, 1+rng.Intn(6))
			for i := range fwds {
				fwds[i] = node()
				log = append(log, fmt.Sprintf("rexp %v", b.Expect(fwds[i], k)))
			}
			step := int(cfg.Timeout / time.Millisecond / 2)
			for _, f := range fwds {
				kernel.RunFor(time.Duration(rng.Intn(step+1)) * time.Millisecond)
				log = append(log, fmt.Sprintf("rfwd %v", b.RecordHeard(f, k)))
				query("race", f, k)
			}
		case 17:
			// An idle stretch and a reboot while expectations are live:
			// deadlines armed on heard and never-heard packets, an idle
			// stretch shorter than tau or past ttl, and a reboot with the
			// deadlines still armed on the old incarnation.
			for i := 0; i < 1+rng.Intn(4); i++ {
				k := packet.Key{Type: packet.TypeRouteReply, Origin: node(), Seq: uint64(4_000_000 + 8*op + i)}
				if rng.Intn(2) == 0 {
					b.RecordHeard(node(), k)
				}
				log = append(log, fmt.Sprintf("sexp %v", b.Expect(node(), k)))
			}
			idle := time.Duration(rng.Intn(int(cfg.Timeout/time.Millisecond))) * time.Millisecond
			if rng.Intn(2) == 0 {
				idle = ttl + time.Duration(rng.Intn(1100))*time.Millisecond
			}
			kernel.RunFor(idle)
			query("swept", node(), somekey())
			gen++
			boot()
			log = append(log, fmt.Sprintf("boot g%d", gen))
			if lastK.Type != 0 {
				query("boot", lastS, lastK)
			}
		case 18:
			// A stale bit: a sender heard once on a packet that copies
			// from others keep alive past the sender's own ttl, asked
			// for at every copy. Once its record dies it must be expected
			// again. Then a forwarder nobody hears is expected, its
			// deadline drops while copies keep the packet alive, and it is
			// expected again.
			k := packet.Key{Type: packet.TypeRouteRequest, Origin: node(), Seq: uint64(5_000_000 + op)}
			first := node()
			b.RecordHeard(first, k)
			keepAlive := func(span time.Duration, tag string, f field.NodeID) {
				for t := time.Duration(0); t <= span; {
					d := ttl/4 + time.Duration(rng.Intn(20))*time.Millisecond
					kernel.RunFor(d)
					t += d
					b.RecordHeard(other(f), k)
					log = append(log, fmt.Sprintf("%s %v", tag, b.Expect(f, k)))
				}
			}
			keepAlive(ttl, "stale", first)
			f := other(first)
			log = append(log, fmt.Sprintf("dexp %v", b.Expect(f, k)))
			keepAlive(cfg.Timeout, "redo", f)
			query("redo", f, k)
		case 19:
			// A wide neighborhood: a packet heard from and expected of
			// nodes whose indexes reach past the settled mask.
			k := packet.Key{Type: packet.TypeRouteRequest, Origin: wide(), Seq: uint64(6_000_000 + op)}
			for range 1 + rng.Intn(12) {
				b.RecordHeard(wide(), k)
				for range rng.Intn(4) {
					log = append(log, fmt.Sprintf("wexp %v", b.Expect(wide(), k)))
				}
				kernel.RunFor(time.Duration(rng.Intn(20)) * time.Millisecond)
			}
			query("wide", wide(), k)
		}
	}
	afterOp()
	kernel.RunFor(5 * time.Second) // drain every deadline
	checkQueue(tb, b)
	if _, ok := b.store.(*logStore); ok && !freed {
		tb.Fatalf("seed %d: no sweep freed a record", seed)
	}
	st := b.Stats()
	log = append(log, fmt.Sprintf("stats %+v len %d", st, b.Len()))
	return log
}

// checkQueue checks b's deadline queue against its store: the head is
// waiting, and the entries the store holds as waiting are exactly b's
// outstanding expectations.
func checkQueue(tb testing.TB, b *Buffer) {
	tb.Helper()
	q := &b.deadlines
	if !q.empty() && !b.store.waiting(q.first().fidx, q.first().key) {
		tb.Fatalf("queue head %+v is not waiting", *q.first())
	}
	waiting := 0
	for _, d := range q.items[q.head:] {
		if b.store.waiting(d.fidx, d.key) {
			waiting++
		}
	}
	if n := len(q.items) - q.head; waiting != b.Len() {
		tb.Fatalf("queue of %d entries holds %d waiting, want %d", n, waiting, b.Len())
	}
}

func diffCompare(t *testing.T, seed int64) {
	t.Helper()
	got := runStoreScript(t, New, seed)
	ref := runStoreScript(t, newMapBuffer, seed)
	if len(got) != len(ref) {
		t.Fatalf("seed %d: log lengths diverge: log store %d vs map %d", seed, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("seed %d: logs diverge at entry %d:\n log: %s\n map: %s", seed, i, got[i], ref[i])
		}
	}
}

// TestWatchStoreEquivalence is the randomized map-vs-log differential
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
// splits logStore from the oracle.
func FuzzWatchStoreEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Add(int64(-19)) // reboots before the guard has heard anything
	f.Fuzz(func(t *testing.T, seed int64) {
		diffCompare(t, seed)
	})
}

// checkLog verifies the log's bookkeeping: the pages cover exactly the
// held ids, every index slot names a held entry that is the newest of its
// pair, every held entry with a fact is on its pair's chain, and the
// overflow set holds one key per queued overflow reception.
func checkLog(t *testing.T, l *Log) {
	t.Helper()
	if l.head > l.next {
		t.Fatalf("head %d past next %d", l.head, l.next)
	}
	if l.head < l.next {
		if want := int((l.next-1)>>logPageShift-l.first) + 1; len(l.pages) != want || l.head>>logPageShift != l.first {
			t.Fatalf("%d pages from page %d for ids [%d, %d), want %d from %d",
				len(l.pages), l.first, l.head, l.next, want, l.head>>logPageShift)
		}
	}
	n := 0
	for _, v := range l.slots {
		if v == 0 {
			continue
		}
		n++
		id := l.idOf(v)
		if id < l.head || id >= l.next {
			t.Fatalf("index names entry %d outside [%d, %d)", id, l.head, l.next)
		}
		if got := l.newest(l.at(id).key); got != id {
			t.Fatalf("index slot for entry %d finds %d", id, got)
		}
	}
	if n != l.n {
		t.Fatalf("%d index slots occupied, n says %d", n, l.n)
	}
	for id := l.head; id < l.next; id++ {
		e := l.at(id)
		if e.batch == 0 && e.ownBatch == 0 {
			continue
		}
		c := l.newest(e.key)
		for c > id && l.at(c).prev != 0 {
			c -= uint64(l.at(c).prev)
		}
		if c != id {
			t.Fatalf("entry %d is not on its pair's chain", id)
		}
	}
	if l.over.Len() != len(l.overQ) {
		t.Fatalf("overflow set holds %d receptions, queue %d", l.over.Len(), len(l.overQ))
	}
}

// TestLogAccounting drives a shared log through bursts of floods heard by
// up to forty guards, retransmissions, own sends and idle stretches, and
// checks its bookkeeping after every round and every answer against a
// per-guard model. Once everything has expired, one more record leaves the
// log one page and the smallest index.
func TestLogAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := sim.New(1)
	l := NewLog(k)
	const guards, ttl = 40, 50 * time.Millisecond
	type fact struct {
		sender, rx field.NodeID
		key        packet.Key
	}
	model := map[fact]time.Duration{} // expiry
	incs := make([]uint64, guards)
	places := make([]map[field.NodeID]int, guards)
	for g := range incs {
		incs[g] = l.join(ttl)
		places[g] = map[field.NodeID]int{}
	}
	place := func(g int, s field.NodeID) int {
		p, ok := places[g][s]
		if !ok {
			p, _ = l.place(s, field.NodeID(g), true)
			places[g][s] = p
		}
		return p
	}
	rec := func(g int, s field.NodeID, kk packet.Key) {
		own := s == field.NodeID(g)
		pos := 0
		if !own {
			pos = place(g, s)
		}
		l.record(pairKey(s, anyKey(kk)), own, pos, field.NodeID(g), k.Now())
		model[fact{s, field.NodeID(g), kk}] = k.Now() + ttl
	}
	peakPages := 0
	for round := 0; round < 300; round++ {
		floods := rng.Intn(3)
		if round%60 < 10 {
			floods = 20 + rng.Intn(20) // a burst
		}
		k.At(k.Now(), func() {
			for range floods {
				kk := packet.Key{Type: packet.TypeRouteRequest, Origin: field.NodeID(1 + rng.Intn(30)), Seq: uint64(rng.Intn(40))}
				s := field.NodeID(rng.Intn(guards))
				if rng.Intn(3) == 0 {
					rec(int(s), s, kk) // the sender's own send
				}
				for range 1 + rng.Intn(guards) {
					if g := rng.Intn(guards); field.NodeID(g) != s {
						rec(g, s, kk)
					}
				}
			}
		})
		k.RunFor(time.Duration(1+rng.Intn(10)) * time.Millisecond)
		peakPages = max(peakPages, len(l.pages))
		checkLog(t, l)
		now := k.Now()
		for f, exp := range model {
			own := f.sender == f.rx
			pos := 0
			if !own {
				pos = places[f.rx][f.sender]
			}
			got, ok := l.heard(pairKey(f.sender, anyKey(f.key)), own, pos, f.rx, incs[f.rx], ttl, now)
			if ok != live(exp, now) || (ok && got != exp) {
				t.Fatalf("round %d: %d heard %d send %v: (%v, %v), model expires at %v", round, f.rx, f.sender, f.key, got, ok, exp)
			}
		}
	}
	k.RunFor(ttl)
	rec(1, 2, key(1, 1))
	checkLog(t, l)
	if l.entries() != 1 || len(l.pages) != 1 || len(l.slots) != logMinSlots || l.over.Len() != 0 || peakPages < 2 {
		t.Fatalf("after everything expired: %d entries on %d pages (peak %d), %d index slots, %d overflow receptions",
			l.entries(), len(l.pages), peakPages, len(l.slots), l.over.Len())
	}
}

// TestSettledFastPath walks one packet record through the cases settled
// must answer: an expected forwarder and a sender heard while the record
// exists answer at once; a never-seen node, a forwarder past the masks
// and a sender heard before the record existed leave the answer to
// expect, which finds the last one on the log and caches it; a cached
// fact stops answering once it has expired, and a dropped forwarder is
// unsettled until it is expected again. Facts live ten tau, so the record
// is made late in the life of the first sender's fact.
func TestSettledFastPath(t *testing.T) {
	k := sim.New(1)
	const tau = 100 * time.Millisecond
	b, _, _ := newBuffer(k, Config{Timeout: tau})
	for id := field.NodeID(0); id <= settledBits; id++ {
		b.Intern(id)
	}
	kk := key(1, 1)
	b.RecordHeardIdx(1, kk) // before the record exists; live until 10 tau
	k.RunFor(10*tau - tau/2)
	if b.Settled(1, kk) || b.Settled(2, kk) {
		t.Fatal("settled without a record")
	}
	if !b.ExpectIdx(2, kk) || !b.Settled(2, kk) {
		t.Fatal("expected forwarder 2 is not settled")
	}
	if b.Settled(1, kk) || b.ExpectIdx(1, kk) || !b.Settled(1, kk) {
		t.Fatal("sender 1, heard before the record, must be found on the log once and then cached")
	}
	if !b.ExpectIdx(settledBits, kk) || b.Settled(settledBits, kk) || b.ExpectIdx(settledBits, kk) {
		t.Fatal("a forwarder past the masks must be answered by the slow path")
	}
	k.RunFor(tau / 4)
	b.RecordHeardIdx(3, kk) // while the record exists
	if !b.Settled(3, kk) || b.Settled(4, kk) {
		t.Fatal("heard sender 3 unsettled or unseen 4 settled")
	}

	// Sender 1's fact expires first; the cache stops answering for every
	// sender, and the slow path re-arms 1 but not 3.
	k.RunFor(tau / 4)
	if b.Settled(1, kk) || b.Settled(3, kk) {
		t.Fatal("the cache answered past its oldest fact's expiry")
	}
	if !b.ExpectIdx(1, kk) || b.ExpectIdx(3, kk) || !b.Settled(3, kk) {
		t.Fatal("slow path after the cache expired: 1 must be armed, 3 still heard")
	}

	// Forwarder 2's expectation drops; it can be armed again.
	k.RunFor(tau / 2)
	if b.Settled(2, kk) || !b.ExpectIdx(2, kk) {
		t.Fatal("forwarder 2 not re-armed after its drop")
	}
}

// TestRecordLayout pins the log entry and the guard record sizes: an
// entry per transmission is the log's whole cost, and a record per packet
// a guard expects forwards of is the guard's.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 48 {
		t.Errorf("log entry is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(guardRecord{}); got != 40 {
		t.Errorf("guardRecord is %d bytes, want 40", got)
	}
}
