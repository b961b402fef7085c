package watch

import "liteworp/internal/flatmap"

// AuditCounts counts the store answers an audit checked, by kind:
// Settled counts settled probes, SettledTrue the forwarders they reported.
type AuditCounts struct {
	Record, Heard, HeardAny, Expect, Settled, SettledTrue, Waiting int
}

// Audit runs every buffer built until stop is called on its production
// store under a map oracle fed the same calls (see auditStore), sending
// each answer that differs to report. It swaps a package variable, so a
// test that calls it must not run in parallel.
func Audit(report func(string)) (counts *AuditCounts, stop func()) {
	counts = &AuditCounts{}
	wrapStore = func(b *Buffer, prod storeBackend) storeBackend {
		return &auditStore{prod: prod, oracle: newMapStore(b), b: b, report: report, calls: counts}
	}
	return counts, func() { wrapStore = nil }
}

// DeadlineCensus sums the deadline queues of the buffers a census saw.
type DeadlineCensus struct {
	Guards  int // buffers built
	Slots   int // deadline slots in their pages and their logs' spares
	Queued  int // entries queued, met or waiting
	Waiting int // entries whose expectation is outstanding
	PageLen int // slots per page
}

// Census notes every buffer built until stop is called; take sums their
// deadline queues as they are when it is called. It swaps a package
// variable, so a test that calls it must not run in parallel.
func Census() (take func() DeadlineCensus, stop func()) {
	var bufs []*Buffer
	wrapStore = func(b *Buffer, s storeBackend) storeBackend {
		bufs = append(bufs, b)
		return s
	}
	take = func() DeadlineCensus {
		c := DeadlineCensus{Guards: len(bufs), PageLen: flatmap.ShortPage}
		logs := map[*Log]bool{}
		for _, b := range bufs {
			c.Slots += b.deadlines.Pages() * flatmap.ShortPage
			c.Queued += b.deadlines.Len()
			c.Waiting += b.Len()
			if l := b.cfg.Log; !logs[l] {
				logs[l] = true
				c.Slots += l.deadlineSpare.Len() * flatmap.ShortPage
			}
		}
		return c
	}
	return take, func() { wrapStore = nil }
}
