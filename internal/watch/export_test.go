package watch

// AuditCounts counts the store answers an audit checked, by kind.
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
