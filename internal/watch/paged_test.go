package watch

import (
	"math/rand"
	"testing"

	"liteworp/internal/flatmap"
)

// checkPages verifies q's pages, as the log and the guards use them: they
// hold the positions [Head, Next), and no page more than those positions
// span.
func checkPages[T any, P flatmap.Page[T]](tb testing.TB, q *flatmap.Paged[T, P]) {
	tb.Helper()
	head, next := q.Head(), q.Next()
	if head > next {
		tb.Fatalf("head %d past next %d", head, next)
	}
	var p P
	n := uint64(len(p))
	held := 0 // pages holding a value
	if !q.Empty() {
		held = int((next-1)/n-head/n) + 1
	}
	span := int((next+n-1)/n - head/n)
	if q.Pages() < held || q.Pages() > span {
		tb.Fatalf("%d pages for positions [%d, %d), want %d to %d", q.Pages(), head, next, held, span)
	}
}

// TestPagedMatchesSlice drives a queue of 8-value pages with one spare
// through random bursts of pushes and pops beside a plain slice: every
// value read back at its position is the one the slice holds, the pages
// never outnumber what the values span, and the spares never pass their
// max.
func TestPagedMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spare := flatmap.Spares[[flatmap.ShortPage]uint64]{Max: 1}
	var q flatmap.Paged[uint64, [flatmap.ShortPage]uint64]
	q.Init(5, &spare)
	var model []uint64 // the values at positions [q.Head(), q.Next())
	for step := 0; step < 2000; step++ {
		if rng.Intn(2) == 0 {
			for range rng.Intn(24) {
				i, v := q.Push()
				if *v != 0 {
					t.Fatalf("step %d: pushed position %d holds %d, want 0", step, i, *v)
				}
				*v = i * 7
				model = append(model, i*7)
			}
		} else {
			for n := rng.Intn(24); n > 0 && !q.Empty(); n-- {
				if got := *q.Front(); got != model[0] {
					t.Fatalf("step %d: front %d, want %d", step, got, model[0])
				}
				q.Pop()
				model = model[1:]
			}
		}
		checkPages(t, &q)
		if spare.Len() > spare.Max {
			t.Fatalf("step %d: %d spare pages, max %d", step, spare.Len(), spare.Max)
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: %d values, want %d", step, q.Len(), len(model))
		}
		for j, want := range model {
			if got := *q.At(q.Head() + uint64(j)); got != want {
				t.Fatalf("step %d: position %d holds %d, want %d", step, q.Head()+uint64(j), got, want)
			}
		}
	}
}

// TestPagedTrim: trim keeps the first k values and the pages that hold
// their positions, and a push past them takes a fresh page.
func TestPagedTrim(t *testing.T) {
	var q flatmap.Paged[int, [flatmap.ShortPage]int]
	for range 5 * flatmap.ShortPage {
		q.Push()
	}
	q.Trim(flatmap.ShortPage + 1)
	if q.Len() != flatmap.ShortPage+1 || q.Pages() != 2 {
		t.Fatalf("after trim: %d values on %d pages, want %d on 2", q.Len(), q.Pages(), flatmap.ShortPage+1)
	}
	for range flatmap.ShortPage {
		q.Push()
	}
	if q.Pages() != 3 {
		t.Fatalf("%d values on %d pages, want 3", q.Len(), q.Pages())
	}
	q.Trim(0)
	if !q.Empty() || q.Pages() != 0 {
		t.Fatalf("trim(0) left %d values on %d pages", q.Len(), q.Pages())
	}
}
