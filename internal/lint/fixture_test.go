package lint

import (
	"fmt"
	"strings"
	"testing"
)

// fixturePkg is one package of an in-memory test module.
type fixturePkg struct {
	path  string // import path under the "liteworp" test module
	files map[string]string
}

// checkFixture type-checks the fixture module, runs one analyzer, and
// compares the findings against `// want:<analyzer>` markers embedded in
// the sources. A line may carry the marker multiple times to expect
// multiple findings on that line.
func checkFixture(t *testing.T, an *Analyzer, pkgs []fixturePkg) {
	t.Helper()
	diags := runFixture(t, an, pkgs)

	expected := make(map[string]int) // "file:line" -> count
	marker := "want:" + an.Name
	for _, p := range pkgs {
		dir, _ := strings.CutPrefix(p.path, "liteworp/")
		if p.path == "liteworp" {
			dir = ""
		}
		for name, src := range p.files {
			file := name
			if dir != "" {
				file = dir + "/" + name
			}
			for i, line := range strings.Split(src, "\n") {
				for _, frag := range strings.Split(line, marker)[1:] {
					// Guard against marker-prefix collisions (e.g.
					// want:nondet-taint vs want:nondet-taint-extra).
					if frag != "" && frag[0] != ' ' && frag[0] != '"' {
						continue
					}
					expected[fmt.Sprintf("%s:%d", file, i+1)]++
				}
			}
		}
	}

	got := make(map[string]int)
	for _, d := range diags {
		if d.Analyzer != an.Name {
			t.Errorf("diagnostic from wrong analyzer: %s", d)
			continue
		}
		got[fmt.Sprintf("%s:%d", d.File, d.Line)]++
	}

	for pos, want := range expected {
		if got[pos] != want {
			t.Errorf("%s: want %d %s finding(s), got %d", pos, want, an.Name, got[pos])
		}
	}
	for pos, n := range got {
		if expected[pos] == 0 {
			t.Errorf("%s: unexpected %s finding (%d)", pos, an.Name, n)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("  reported: %s", d)
		}
	}
}

func runFixture(t *testing.T, an *Analyzer, pkgs []fixturePkg) []Diagnostic {
	t.Helper()
	m := make(map[string]map[string]string, len(pkgs))
	for _, p := range pkgs {
		m[p.path] = p.files
	}
	loaded, err := LoadSource("liteworp", m)
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	return Run(loaded, []*Analyzer{an})
}
