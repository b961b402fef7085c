package lint

import (
	"strings"
	"testing"
)

func TestNoRawGoroutine(t *testing.T) {
	cases := []struct {
		name string
		pkgs []fixturePkg
	}{
		{
			name: "concurrency primitives flagged in internal",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{"conc.go": `package fixture

func work() {}

func bad() {
	go work() // want:no-raw-goroutine
	ch := make(chan int, 4) // want:no-raw-goroutine
	select { // a source: nondet-taint reports it
	case v := <-ch:
		_ = v
	default:
	}
}
`},
			}},
		},
		{
			name: "event-callback style is compliant",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/fixture",
				files: map[string]string{"conc.go": `package fixture

type clock struct{ queue []func() }

func (c *clock) After(fn func()) { c.queue = append(c.queue, fn) }

func good(c *clock) {
	c.After(func() {})
	buf := make([]int, 8)
	m := make(map[string]int)
	_, _ = buf, m
}
`},
			}},
		},
		{
			name: "declared concurrency layer may use the pool primitives",
			pkgs: []fixturePkg{{
				path: "liteworp/internal/campaign",
				files: map[string]string{"pool.go": `package campaign

//lint:concurrency-layer fixture: fan-out above the kernel boundary

func work() {}

func pool() {
	done := make(chan struct{})
	go func() { work(); close(done) }()
	select {
	case <-done:
	}
}
`},
			}},
		},
		{
			name: "cmd may use real concurrency",
			pkgs: []fixturePkg{{
				path: "liteworp/cmd/fixture",
				files: map[string]string{"main.go": `package main

func main() {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}
`},
			}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkFixture(t, NoRawGoroutine, c.pkgs) })
	}
}

// TestEmptyConcurrencyLayerDirective: a reason-less directive does not buy
// the exemption silently — it is itself a finding, reported at the
// directive so the author either justifies or removes it. (Asserted
// directly rather than with a want-marker: a marker comment appended to
// the directive line would become the directive's reason.)
func TestEmptyConcurrencyLayerDirective(t *testing.T) {
	diags := runFixture(t, NoRawGoroutine, []fixturePkg{{
		path: "liteworp/internal/fixture",
		files: map[string]string{"conc.go": `package fixture

//lint:concurrency-layer

func work() {}

func pool() {
	go work()
}
`},
	}})
	if len(diags) != 1 {
		t.Fatalf("want exactly the empty-directive finding, got %v", diags)
	}
	d := diags[0]
	if d.Line != 3 || !strings.Contains(d.Message, "empty //lint:concurrency-layer") {
		t.Errorf("finding not anchored at the directive: %s", d)
	}
}

// TestConcurrencyLayerIsDeclaredAndNarrow pins the goroutine exemption
// model: a package opts out of no-raw-goroutine only by declaring itself
// a concurrency layer in its own source, with a reason, and the real
// module grants that declaration to exactly the campaign fan-out layer.
// Simulation packages must never carry the directive.
func TestConcurrencyLayerIsDeclaredAndNarrow(t *testing.T) {
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	var layers []string
	for _, p := range pkgs {
		reason, ok, _ := ConcurrencyLayer(p)
		if !ok {
			continue
		}
		layers = append(layers, p.Dir)
		if reason == "" {
			t.Errorf("%s declares an empty //lint:concurrency-layer directive", p.Dir)
		}
	}
	if len(layers) != 1 || layers[0] != "internal/campaign" {
		t.Errorf("concurrency layer widened beyond internal/campaign: %v — each new entry needs review here", layers)
	}
	// Every internal directory stays in scope, the declared layer
	// included, so an empty or removed directive immediately reinstates
	// the ban.
	for _, dir := range []string{"internal", "internal/sim", "internal/campaign", "internal/campaign/sub"} {
		diags := runFixture(t, NoRawGoroutine, []fixturePkg{{
			path:  "liteworp/" + dir,
			files: map[string]string{"conc.go": "package p\n\nfunc work() {}\n\nfunc spawn() { go work() }\n"},
		}})
		if len(diags) != 1 {
			t.Errorf("no-raw-goroutine on an undeclared %s: %v, want the go statement", dir, diags)
		}
	}
}
