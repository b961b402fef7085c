package lint

import "testing"

// fixtureSim is a minimal stand-in for internal/sim: the analyzer matches
// the Kernel type by name and package-path suffix, so the synthetic module
// exercises the same code path as the real one.
const fixtureSim = `package sim

import "time"

type Event func()

type Timer struct{}

type Lane struct{ d time.Duration }

type Kernel struct{ now time.Duration }

func (k *Kernel) Now() time.Duration                      { return k.now }
func (k *Kernel) At(t time.Duration, fn Event) *Timer     { return &Timer{} }
func (k *Kernel) After(d time.Duration, fn Event) *Timer  { return &Timer{} }
func (k *Kernel) Lane(d time.Duration) *Lane              { return &Lane{d: d} }
func (k *Kernel) AfterLane(l *Lane, fn Event) *Timer      { return &Timer{} }

type Scope struct{ k *Kernel }

func NewScope(k *Kernel) *Scope { return &Scope{k: k} }

func (s *Scope) Now() time.Duration                     { return s.k.Now() }
func (s *Scope) At(t time.Duration, fn Event) *Timer    { return s.k.At(t, fn) }
func (s *Scope) After(d time.Duration, fn Event) *Timer { return s.k.After(d, fn) }
func (s *Scope) Lane(d time.Duration) *Lane             { return s.k.Lane(d) }
func (s *Scope) AfterLane(l *Lane, fn Event) *Timer     { return s.k.AfterLane(l, fn) }

type Clock interface {
	Now() time.Duration
	At(t time.Duration, fn Event) *Timer
	After(d time.Duration, fn Event) *Timer
	Lane(d time.Duration) *Lane
	AfterLane(l *Lane, fn Event) *Timer
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

func (e *engine) armLane() {
	lane := e.kernel.Lane(time.Second) // fetching a lane schedules nothing
	e.kernel.AfterLane(lane, func() {}) // want:scoped-timers
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

func (b *buffer) armLane(k *sim.Kernel) {
	b.scope.AfterLane(b.scope.Lane(time.Second), func() {})
	b.clock.AfterLane(k.Lane(time.Second), func() {}) // a kernel's lane armed through a clock is scoped
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
