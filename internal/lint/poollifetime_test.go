package lint

import "testing"

// TestPoolLifetime drives the freelist-discipline checker over a fixture
// pool shaped like the simulator's (receiver-owned free list, recycle
// method appending a pointer parameter): use-after-release,
// double-release, escapes into long-lived structs via field assignment
// and composite literal, the generation-fence waiver (which waives nothing
// without a reason), a read after a release method on the record itself
// (a reference-counted frame's Release, which reaches the pool's recycle,
// also through a second method), and the documented
// limit that a release inside a conditional branch does not poison the
// straight-line flow after it.
func TestPoolLifetime(t *testing.T) {
	pkgs := []fixturePkg{{
		path: "liteworp/internal/pool",
		files: map[string]string{"pool.go": `package pool

type item struct {
	n  int
	fn func()
}

type K struct {
	free []*item
}

func (k *K) newItem() *item {
	if n := len(k.free); n > 0 {
		it := k.free[n-1]
		k.free = k.free[:n-1]
		return it
	}
	return &item{}
}

func (k *K) recycle(it *item) {
	it.fn = nil
	k.free = append(k.free, it)
}

type handle struct {
	it *item
}

func (k *K) useAfter() int {
	it := k.newItem()
	k.recycle(it)
	return it.n // want:pool-lifetime
}

func (k *K) double() {
	it := k.newItem()
	k.recycle(it)
	k.recycle(it) // want:pool-lifetime
}

func (k *K) escapeLit() *handle {
	it := k.newItem()
	return &handle{it: it} // want:pool-lifetime
}

func (k *K) escapeAssign(h *handle) {
	it := k.newItem()
	h.it = it // want:pool-lifetime
}

func (k *K) fenced() *handle {
	it := k.newItem()
	//lint:pooled fixture: generation-fenced handle revalidates on every use
	return &handle{it: it}
}

func (k *K) lazyFence() *handle {
	it := k.newItem()
	//lint:pooled
	return &handle{it: it} // want:pool-lifetime
}

func (k *K) clean() int {
	it := k.newItem()
	n := it.n
	k.recycle(it)
	return n
}

func (k *K) branchRelease(drop bool) int {
	it := k.newItem()
	if drop {
		k.recycle(it)
		return 0
	}
	n := it.n
	k.recycle(it)
	return n
}

func (k *K) reuse() int {
	it := k.newItem()
	k.recycle(it)
	it = k.newItem()
	n := it.n
	k.recycle(it)
	return n
}

type frame struct {
	n    int
	refs int
	pool *framePool
}

type framePool struct {
	free []*frame
}

func (pl *framePool) get() *frame {
	if n := len(pl.free); n > 0 {
		f := pl.free[n-1]
		pl.free = pl.free[:n-1]
		f.refs = 1
		return f
	}
	return &frame{pool: pl, refs: 1}
}

func (pl *framePool) recycle(f *frame) {
	pl.free = append(pl.free, f)
}

func (f *frame) Release() {
	f.refs--
	if f.refs == 0 {
		f.pool.recycle(f)
	}
}

func (f *frame) Drop() {
	f.Release()
}

func (pl *framePool) readAfterRelease() int {
	p := pl.get()
	p.Release()
	return p.n // want:pool-lifetime
}

func (pl *framePool) readAfterDrop() int {
	p := pl.get()
	p.Drop()
	return p.n // want:pool-lifetime
}

func (pl *framePool) readBeforeRelease() int {
	p := pl.get()
	n := p.n
	p.Release()
	return n
}
`},
	}}
	checkFixture(t, PoolLifetime, pkgs)
}

// TestPoolDiscoveryGuard: an append of a parameter into a slice field is
// only a pool release when the field looks like a free list or the
// function looks like a release — ordinary collection helpers must not
// be misread as pools.
func TestPoolDiscoveryGuard(t *testing.T) {
	diags := runFixture(t, PoolLifetime, []fixturePkg{{
		path: "liteworp/internal/pool",
		files: map[string]string{"pool.go": `package pool

type row struct{ n int }

type table struct {
	rows []*row
}

func (t *table) add(r *row) {
	t.rows = append(t.rows, r)
}

func (t *table) sum() int {
	r := &row{n: 1}
	t.add(r)
	return r.n
}
`},
	}})
	if len(diags) != 0 {
		t.Fatalf("collection helper misread as a pool: %v", diags)
	}
}
