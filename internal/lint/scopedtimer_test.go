package lint

import "testing"

// fixtureSim is a minimal stand-in for internal/sim: the analyzer matches
// the Kernel type by name and package-path suffix, so the synthetic module
// exercises the same code path as the real one.
const fixtureSim = `package sim

import "time"

type Event func()

type Timer struct{}

type Kernel struct{ now time.Duration }

func (k *Kernel) Now() time.Duration                      { return k.now }
func (k *Kernel) At(t time.Duration, fn Event) *Timer     { return &Timer{} }
func (k *Kernel) After(d time.Duration, fn Event) *Timer  { return &Timer{} }
func (k *Kernel) Reserve() uint64                         { return 1 }
func (k *Kernel) AtSeq(t time.Duration, seq uint64, fn Event) *Timer {
	return &Timer{}
}

type Scope struct{ k *Kernel }

func NewScope(k *Kernel) *Scope { return &Scope{k: k} }

func (s *Scope) Now() time.Duration                     { return s.k.Now() }
func (s *Scope) At(t time.Duration, fn Event) *Timer    { return s.k.At(t, fn) }
func (s *Scope) After(d time.Duration, fn Event) *Timer { return s.k.After(d, fn) }
func (s *Scope) Reserve() uint64                        { return s.k.Reserve() }
func (s *Scope) AtSeq(t time.Duration, seq uint64, fn Event) *Timer {
	return s.k.AtSeq(t, seq, fn)
}

type Clock interface {
	Now() time.Duration
	At(t time.Duration, fn Event) *Timer
	After(d time.Duration, fn Event) *Timer
	Reserve() uint64
	AtSeq(t time.Duration, seq uint64, fn Event) *Timer
}

type Wheel struct{ clock Clock }

func NewWheel(clock Clock, gran time.Duration) *Wheel { return &Wheel{clock: clock} }
`

func TestScopedTimers(t *testing.T) {
	simPkg := fixturePkg{
		path:  "liteworp/internal/sim",
		files: map[string]string{"sim.go": fixtureSim},
	}
	cases := []struct {
		name string
		pkgs []fixturePkg
	}{
		{
			name: "direct kernel scheduling flagged in node-owned packages",
			pkgs: []fixturePkg{simPkg, {
				path: "liteworp/internal/core",
				files: map[string]string{"engine.go": `package core

import (
	"time"

	"liteworp/internal/sim"
)

type engine struct{ kernel *sim.Kernel }

func (e *engine) arm() {
	e.kernel.After(time.Second, func() {}) // want:scoped-timers
	e.kernel.At(5*time.Second, func() {}) // want:scoped-timers
}

func (e *engine) armReserved() {
	seq := e.kernel.Reserve() // reserving a sequence number schedules nothing
	e.kernel.AtSeq(time.Second, seq, func() {}) // want:scoped-timers
}
`},
			}},
		},
		{
			name: "scope and clock interface are the sanctioned paths",
			pkgs: []fixturePkg{simPkg, {
				path: "liteworp/internal/watch",
				files: map[string]string{"watch.go": `package watch

import (
	"time"

	"liteworp/internal/sim"
)

type buffer struct {
	scope *sim.Scope
	clock sim.Clock
}

func (b *buffer) arm(k *sim.Kernel) {
	b.scope.After(time.Second, func() {})
	b.clock.At(5*time.Second, func() {})
	_ = k.Now() // reading the clock is fine; only scheduling is scoped
}

func (b *buffer) armReserved(k *sim.Kernel) {
	b.scope.AtSeq(time.Second, b.scope.Reserve(), func() {})
	b.clock.AtSeq(time.Second, k.Reserve(), func() {}) // a kernel's seq armed through a clock is scoped
}
`},
			}},
		},
		{
			name: "wheel built on a raw kernel flagged, on scope or clock sanctioned",
			pkgs: []fixturePkg{simPkg, {
				path: "liteworp/internal/routing",
				files: map[string]string{"router.go": `package routing

import "liteworp/internal/sim"

type router struct {
	scope *sim.Scope
	clock sim.Clock
}

func (r *router) build(k *sim.Kernel) {
	_ = sim.NewWheel(k, 0) // want:scoped-timers
	_ = sim.NewWheel(r.scope, 0)
	_ = sim.NewWheel(r.clock, 0)
}
`},
			}},
		},
		{
			name: "infrastructure packages may schedule on the kernel",
			pkgs: []fixturePkg{simPkg, {
				path: "liteworp/internal/trafficgen",
				files: map[string]string{"gen.go": `package trafficgen

import (
	"time"

	"liteworp/internal/sim"
)

func start(k *sim.Kernel) {
	k.After(time.Second, func() {})
}
`},
			}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkFixture(t, ScopedTimers, c.pkgs) })
	}
}
