package watch

import (
	"math/rand"
	"testing"
)

// len returns the number of values q holds.
func (q *paged[T, P]) len() int { return int(q.next - q.head) }

// checkPages verifies q's pages: they hold the positions [head, next),
// and no page more than those positions span, and the spares hold no more
// than their max.
func checkPages[T any, P page[T]](tb testing.TB, q *paged[T, P]) {
	tb.Helper()
	if q.head > q.next {
		tb.Fatalf("head %d past next %d", q.head, q.next)
	}
	n := q.size()
	held := 0 // pages holding a value
	if !q.empty() {
		held = int((q.next-1)/n-q.head/n) + 1
	}
	span := int((q.next+n-1)/n - q.head/n)
	if len(q.pages) < held || len(q.pages) > span {
		tb.Fatalf("%d pages for positions [%d, %d), want %d to %d", len(q.pages), q.head, q.next, held, span)
	}
	if s := q.spares; s != nil && len(s.pages) > s.max {
		tb.Fatalf("%d spare pages, max %d", len(s.pages), s.max)
	}
}

// TestPagedMatchesSlice drives a queue of 8-value pages with one spare
// through random bursts of pushes and pops beside a plain slice: every
// value read back at its position is the one the slice holds, and the
// pages never outnumber what the values span.
func TestPagedMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := paged[uint64, [pageSize]uint64]{head: 5, next: 5, spares: &spares[[pageSize]uint64]{max: 1}}
	var model []uint64 // the values at positions [q.head, q.next)
	for step := 0; step < 2000; step++ {
		if rng.Intn(2) == 0 {
			for range rng.Intn(24) {
				i, v := q.push()
				if *v != 0 {
					t.Fatalf("step %d: pushed position %d holds %d, want 0", step, i, *v)
				}
				*v = i * 7
				model = append(model, i*7)
			}
		} else {
			for n := rng.Intn(24); n > 0 && !q.empty(); n-- {
				if got := *q.front(); got != model[0] {
					t.Fatalf("step %d: front %d, want %d", step, got, model[0])
				}
				q.pop()
				model = model[1:]
			}
		}
		checkPages(t, &q)
		if q.len() != len(model) {
			t.Fatalf("step %d: %d values, want %d", step, q.len(), len(model))
		}
		for j, want := range model {
			if got := *q.at(q.head + uint64(j)); got != want {
				t.Fatalf("step %d: position %d holds %d, want %d", step, q.head+uint64(j), got, want)
			}
		}
	}
}

// TestPagedTrim: trim keeps the first k values and the pages that hold
// their positions, and a push past them takes a fresh page.
func TestPagedTrim(t *testing.T) {
	var q paged[int, [pageSize]int]
	for range 5 * pageSize {
		q.push()
	}
	q.trim(pageSize + 1)
	if q.len() != pageSize+1 || len(q.pages) != 2 {
		t.Fatalf("after trim: %d values on %d pages, want %d on 2", q.len(), len(q.pages), pageSize+1)
	}
	for range pageSize {
		q.push()
	}
	if len(q.pages) != 3 {
		t.Fatalf("%d values on %d pages, want 3", q.len(), len(q.pages))
	}
	q.trim(0)
	if !q.empty() || len(q.pages) != 0 {
		t.Fatalf("trim(0) left %d values on %d pages", q.len(), len(q.pages))
	}
}
