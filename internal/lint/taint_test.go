package lint

import (
	"strings"
	"testing"
)

// TestNondetTaint exercises the interprocedural taint pass over one
// fixture module: a wall-clock source hidden behind two layers of
// helpers, a function-value bind, an unordered map range, a select (each
// source also reported at its own line), a waived edge that cuts
// propagation, a declared concurrency layer whose select is not a source,
// and direct sources in the module root and cmd/. A //lint:nondet
// <reason> on a source line cuts propagation; it silences the line only
// in the module root and never for a global rand draw. Without a reason
// it waives nothing and is itself the finding.
func TestNondetTaint(t *testing.T) {
	pkgs := []fixturePkg{
		{
			path: "liteworp/internal/fixture",
			files: map[string]string{"taint.go": `package fixture

import "time"

func now() time.Time { return time.Now() } // want:nondet-taint

func helper() time.Time { return now() } // want:nondet-taint

func entry() time.Time { return helper() } // want:nondet-taint

func binder() func() time.Time {
	return now // want:nondet-taint
}

func waived() time.Time {
	return now() //lint:nondet fixture: replay re-seeds the clock here
}

func throughWaiver() time.Time { return waived() }

func keys(m map[int]int) []int {
	var out []int
	for k := range m { // want:nondet-taint
		out = append(out, k)
	}
	return out
}

func useKeys(m map[int]int) []int { return keys(m) } // want:nondet-taint

func wait(ch chan struct{}) {
	select { // want:nondet-taint
	case <-ch:
	}
}

func poll(ch chan struct{}) { wait(ch) } // want:nondet-taint

func waivedSource() time.Time {
	//lint:nondet fixture: the line stays a finding inside internal/
	return time.Now() // want:nondet-taint
}

func aboveWaivedSource() time.Time { return waivedSource() }

func lazy() time.Time {
	//lint:nondet
	return now() // want:nondet-taint
}

func aboveLazy() time.Time { return lazy() } // want:nondet-taint
`},
		},
		{
			path: "liteworp/internal/layer",
			files: map[string]string{"layer.go": `package layer

//lint:concurrency-layer fixture: fan-out above the kernel boundary

func wait(ch chan struct{}) {
	select {
	case <-ch:
	}
}

func drive(ch chan struct{}) { wait(ch) }
`},
		},
		{
			path: "liteworp",
			files: map[string]string{"lib.go": `package liteworp

import (
	"math/rand"
	"time"
)

func Stamp() time.Time {
	return time.Now() // want:nondet-taint
}

func waivedStamp() time.Time {
	//lint:nondet fixture: the module root's waiver silences the line
	return time.Now()
}

func waivedDraw() int {
	//lint:nondet fixture: a global draw stays a finding
	return rand.Intn(3) // want:nondet-taint
}
`},
		},
		{
			path: "liteworp/cmd/fixture",
			files: map[string]string{"main.go": `package main

import (
	"math/rand"
	"time"
)

func main() {
	start := time.Now()
	ch := make(chan int)
	select {
	case <-ch:
	default:
	}
	//lint:nondet fixture: a global draw stays a finding
	_ = rand.Intn(3) // want:nondet-taint
	_ = time.Since(start)
}
`},
		},
	}
	checkFixture(t, NondetTaint, pkgs)
}

// TestNondetTaintPathInMessage: cascade findings carry the rendered
// shortest path to the source so the reader can follow the chain without
// re-running the linter per hop.
func TestNondetTaintPathInMessage(t *testing.T) {
	diags := runFixture(t, NondetTaint, []fixturePkg{{
		path: "liteworp/internal/fixture",
		files: map[string]string{"taint.go": `package fixture

import "time"

func now() time.Time { return time.Now() }

func helper() time.Time { return now() }

func entry() time.Time { return helper() }
`},
	}})
	const wantPath = "liteworp/internal/fixture.helper -> liteworp/internal/fixture.now at internal/fixture/taint.go:5"
	found := false
	for _, d := range diags {
		if d.Line == 9 {
			found = true
			if !strings.Contains(d.Message, wantPath) {
				t.Errorf("entry finding lacks the taint path %q: %s", wantPath, d.Message)
			}
			if !strings.Contains(d.Message, "time.Now") {
				t.Errorf("entry finding does not name the source kind: %s", d.Message)
			}
		}
	}
	if !found {
		t.Fatalf("no finding at the entry -> helper edge; got %v", diags)
	}
}

// The source-line fixtures below pin where nondet-taint reports a source at
// its own line: wall-clock reads and map ranges in internal/ and the module
// root, global rand draws everywhere, cmd/ free to read the wall clock.

func TestNoWallclock(t *testing.T) {
	cases := []struct {
		name string
		pkgs []fixturePkg
	}{
		{
			name: "violations in internal",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{"clock.go": `package fixture

import "time"

func bad() time.Duration {
	start := time.Now() // want:nondet-taint
	time.Sleep(time.Millisecond) // want:nondet-taint
	<-time.After(time.Second) // want:nondet-taint
	t := time.NewTimer(time.Second) // want:nondet-taint
	_ = t
	return time.Since(start) // want:nondet-taint
}
`},
			}},
		},
		{
			name: "compliant duration arithmetic and local Now methods",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{"clock.go": `package fixture

import "time"

type clock struct{ now time.Duration }

func (c *clock) Now() time.Duration { return c.now }

func good(c *clock) time.Duration {
	deadline := c.Now() + 5*time.Second
	_ = time.Duration(42) * time.Millisecond
	return deadline
}
`},
			}},
		},
		{
			name: "cmd is exempt for wall-clock progress reporting",
			pkgs: []fixturePkg{{
				path: "liteworp/cmd/fixture",
				files: map[string]string{"main.go": `package main

import "time"

func main() {
	start := time.Now()
	_ = time.Since(start)
}
`},
			}},
		},
		{
			name: "module root is bound too",
			pkgs: []fixturePkg{{
				path: "liteworp",
				files: map[string]string{"root.go": `package liteworp

import "time"

func Stamp() time.Time { return time.Now() } // want:nondet-taint
`},
			}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkFixture(t, NondetTaint, c.pkgs) })
	}
}

func TestNoGlobalRand(t *testing.T) {
	cases := []struct {
		name string
		pkgs []fixturePkg
	}{
		{
			name: "global draws flagged in internal",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{"rng.go": `package fixture

import "math/rand"

func bad() {
	_ = rand.Intn(10) // want:nondet-taint
	_ = rand.Float64() // want:nondet-taint
	rand.Shuffle(3, func(i, j int) {}) // want:nondet-taint
	f := rand.ExpFloat64 // want:nondet-taint
	_ = f
}
`},
			}},
		},
		{
			name: "global draws flagged in cmd too",
			pkgs: []fixturePkg{{
				path: "liteworp/cmd/fixture",
				files: map[string]string{"main.go": `package main

import "math/rand"

func main() {
	_ = rand.Int63() // want:nondet-taint
}
`},
			}},
		},
		{
			name: "seeded generator is the sanctioned path",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{"rng.go": `package fixture

import "math/rand"

func good(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10) + int(r.Int63n(4))
}
`},
			}},
		},
		{
			name: "shadowing identifier is not the package",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{"rng.go": `package fixture

type generator struct{}

func (generator) Intn(n int) int { return 0 }

func good() int {
	rand := generator{}
	return rand.Intn(10)
}
`},
			}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkFixture(t, NondetTaint, c.pkgs) })
	}
}

func TestDeterministicMapRange(t *testing.T) {
	cases := []struct {
		name string
		pkgs []fixturePkg
	}{
		{
			name: "order-sensitive loops flagged",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{"maps.go": `package fixture

type rng struct{}

func (rng) Float64() float64 { return 0 }

func send(id int) {}

func unsortedKeys(m map[int]string) []int {
	out := make([]int, 0, len(m))
	for k := range m { // want:nondet-taint
		out = append(out, k)
	}
	return out
}

func callsInBody(m map[int]string) {
	for k := range m { // want:nondet-taint
		send(k)
	}
}

func rngInBody(m map[int]string, r rng) float64 {
	var sum float64
	for range m { // want:nondet-taint
	}
	for k := range m { // want:nondet-taint
		_ = k
		sum += r.Float64()
	}
	return sum
}

func earlyBreak(m map[int]string) int {
	for k := range m { // want:nondet-taint
		if k > 3 {
			break
		}
	}
	return 0
}

func nonConstantStore(m map[int]string) int {
	last := 0
	for k := range m { // want:nondet-taint
		last = k
	}
	return last
}
`},
			}},
		},
		{
			name: "every map range is a finding",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{"maps.go": `package fixture

import "sort"

type item struct{ fired bool }

func sortedCollect(m map[int]string) []int {
	out := make([]int, 0, len(m))
	for k := range m { // want:nondet-taint
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedInts(m map[int]bool) []int {
	var out []int
	for k, live := range m { // want:nondet-taint
		if live {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

func counters(m map[int]*item) (int, int) {
	n, total := 0, 0
	for _, it := range m { // want:nondet-taint
		if it.fired {
			n++
		}
		total += 2 * len(m)
	}
	return n, total
}

func mapCopy(src map[int]uint64) map[int]uint64 {
	dst := make(map[int]uint64, len(src))
	for k, v := range src { // want:nondet-taint
		dst[k] = v
	}
	return dst
}

func sweep(m map[int]*item) {
	for k, it := range m { // want:nondet-taint
		if it.fired {
			delete(m, k)
		}
	}
}

func idempotentFlag(m map[int]*item) {
	for _, it := range m { // want:nondet-taint
		it.fired = true
	}
}

func setBuild(m map[int][]int) map[int]bool {
	set := make(map[int]bool)
	for _, ns := range m { // want:nondet-taint
		for _, n := range ns {
			if n != 0 {
				set[n] = true
			}
		}
	}
	return set
}

func keyedViaLocal(src map[int]item) map[int]bool {
	out := make(map[int]bool, len(src))
	for k, v := range src { // want:nondet-taint
		key := k * 2
		out[key] = v.fired
	}
	return out
}

func noVars(m map[int]string) int {
	n := 0
	for range m { // want:nondet-taint
		n++
	}
	return n
}
`},
			}},
		},
		{
			name: "type-parameter maps are flagged, type-parameter slices are not",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{"generic.go": `package fixture

type anyMap[K comparable, V any] interface{ ~map[K]V }

func keysOf[M ~map[int]V, V any](m M) []int {
	var out []int
	for k := range m { // want:nondet-taint
		out = append(out, k)
	}
	return out
}

func count[M anyMap[string, V], V any](m M) int {
	n := 0
	for range m { // want:nondet-taint
		n++
	}
	return n
}

func sum[S ~[]int](s S) int {
	n := 0
	for _, x := range s {
		n += x
	}
	return n
}
`},
			}},
		},
		{
			name: "a waiver covers nested map ranges, not other sources",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{"maps.go": `package fixture

import "time"

func stamp(m map[int]map[int]bool) {
	//lint:ordered fixture: the body only reads
	for _, inner := range m {
		for range inner {
			_ = time.Now() // want:nondet-taint
		}
	}
	for range m { // want:nondet-taint
	}
}
`},
			}},
		},
		{
			name: "waiver with justification silences, and covers nested ranges",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{"maps.go": `package fixture

func isMember(n int) bool { return n > 0 }

func waived(m map[int]map[int]bool) map[int]bool {
	set := make(map[int]bool)
	//lint:ordered builds a set; membership calls are read-only
	for _, inner := range m {
		for n := range inner {
			if isMember(n) {
				set[n] = true
			}
		}
	}
	return set
}

func trailingWaiver(m map[int]string) {
	for k := range m { //lint:ordered logging order is cosmetic here
		send(k)
	}
}

func send(int) {}
`},
			}},
		},
		{
			name: "empty waiver is itself a finding",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{"maps.go": `package fixture

func send(int) {}

func lazyWaiver(m map[int]string) {
	//lint:ordered
	for k := range m { // want:nondet-taint
		send(k)
	}
}
`},
			}},
		},
		{
			name: "root ranges are bound, slices are out of scope",
			pkgs: []fixturePkg{
				{
					path: "liteworp",
					files: map[string]string{"root.go": `package liteworp

func Send(int) {}

func RootLoop(m map[int]string) {
	for k := range m { // want:nondet-taint
		Send(k)
	}
}
`},
				},
				{
					path: "liteworp/internal/fixture",
					files: map[string]string{"slices.go": `package fixture

func send(int) {}

func sliceLoop(xs []int) {
	for _, x := range xs {
		send(x)
	}
}
`},
				},
			},
		},
		{
			name: "test files are exempt",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{
					"maps.go": `package fixture

func send(int) {}
`,
					"maps_test.go": `package fixture

func testLoop(m map[int]string) {
	for k := range m {
		send(k)
	}
}
`,
				},
			}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkFixture(t, NondetTaint, c.pkgs) })
	}
}
