package watch

// paged is a queue of T in fixed-length pages, the one container of the
// package: the log's entries and its overflow receptions, each guard's
// deadlines, and each guard's records. A value is addressed by its
// position: push gives each new value the next one, and pop takes the
// value at head, so the values held are those at positions [head, next).
// Positions are never reused, which lets the log use them as entry ids.
//
// pages[0] holds position head, and the pages hold no more than the
// positions [head, next) span. A page that pop empties goes to the
// queue's spares, and push takes a page from there before it allocates
// one; with no spares the collector takes it, as it takes the pages trim
// drops.
//
// The page type P sets the page length, so each use compiles with its
// own constant length; the zero queue starts at position 0.
type paged[T any, P page[T]] struct {
	pages      []*P
	head, next uint64
	spares     *spares[P]
}

// spares holds empty pages for the queues that share it, at most max of
// them. A queue that cycles within its pages plus the spares allocates
// nothing.
type spares[P any] struct {
	pages []*P
	max   int
}

// page lists the page types. The log's pages hold 256 entries of 48
// bytes, so an entry page turns over rarely; a guard's deadlines and
// records, and the log's overflow receptions, go in pages of eight.
type page[T any] interface{ [pageSize]T | [logPageSize]T }

const (
	pageSize    = 8
	logPageSize = 256
)

// size returns the page length.
func (q *paged[T, P]) size() uint64 {
	var p P
	return uint64(len(p))
}

// at returns the value at position i, in [head, next).
func (q *paged[T, P]) at(i uint64) *T {
	n := q.size()
	return &(*q.pages[i/n-q.head/n])[i%n]
}

// front returns the value at head; the queue must not be empty.
func (q *paged[T, P]) front() *T { return q.at(q.head) }

func (q *paged[T, P]) empty() bool { return q.head == q.next }

// push adds a zero value at the tail and returns its position and the
// value.
func (q *paged[T, P]) push() (uint64, *T) {
	i, n := q.next, q.size()
	if int(i/n-q.head/n) == len(q.pages) {
		q.pages = append(q.pages, q.spares.take())
	}
	q.next++
	v := q.at(i)
	var zero T
	*v = zero
	return i, v
}

// pop removes the value at head, and gives its page to the spares once it
// has emptied it.
func (q *paged[T, P]) pop() {
	q.head++
	if q.head%q.size() != 0 {
		return
	}
	p := q.pages[0]
	k := copy(q.pages, q.pages[1:])
	q.pages[k] = nil
	q.pages = q.pages[:k]
	q.spares.put(p)
}

// trim drops the values past the first k, and every page that holds none
// of the positions [head, head+k).
func (q *paged[T, P]) trim(k uint64) {
	n := q.size()
	q.next = min(q.next, q.head+k)
	if keep := int((q.head+k+n-1)/n - q.head/n); keep < len(q.pages) {
		clear(q.pages[keep:])
		q.pages = q.pages[:keep]
	}
}

// take returns a spare page, or a new one when there is none.
func (s *spares[P]) take() *P {
	if s == nil || len(s.pages) == 0 {
		return new(P)
	}
	p := s.pages[len(s.pages)-1]
	s.pages[len(s.pages)-1] = nil
	s.pages = s.pages[:len(s.pages)-1]
	return p
}

// put keeps p if there is room for it.
func (s *spares[P]) put(p *P) {
	if s != nil && len(s.pages) < s.max {
		s.pages = append(s.pages, p)
	}
}
