package lint

import (
	"strings"
	"sync"
	"testing"
)

// loadRepo loads the real module once; type-checking the standard library
// from source dominates the cost, so the self-lint tests share one load.
var loadRepo = sync.OnceValues(func() ([]*Package, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return LoadModule(root)
})

// TestModuleIsLintClean loads the real module and runs the full
// determinism suite: the repository must stay violation-free (the CI lint
// job enforces the same thing via cmd/liteworp-lint). A failure here names exactly what to fix.
func TestModuleIsLintClean(t *testing.T) {
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the walker is missing code", len(pkgs))
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("determinism violation: %s", d)
	}
}

// TestOneOrderedWaiver pins the map-range rule's only exception: the module
// ranges a map in exactly one place, ordered.Keys, which sorts what it
// collects. Every other map is read through sorted keys or a slice.
func TestOneOrderedWaiver(t *testing.T) {
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	var at []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, group := range f.Comments {
				for _, c := range group.List {
					if strings.HasPrefix(c.Text, "//lint:ordered") {
						at = append(at, pkg.Fset.Position(c.Slash).Filename)
					}
				}
			}
		}
	}
	if len(at) != 1 || at[0] != "internal/ordered/ordered.go" {
		t.Errorf("//lint:ordered waivers in %v, want exactly one in internal/ordered/ordered.go", at)
	}
}

// TestModulePoolsDiscovered pins the pool-lifetime analyzer's reach on the
// real module: every free list the hot paths recycle through must be
// discovered by shape, or its use-after-release checks silently stop.
func TestModulePoolsDiscovered(t *testing.T) {
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	pools, releases := discoverPools(&ModulePass{Pkgs: pkgs, Graph: BuildGraph(pkgs), fset: pkgs[0].Fset})
	found := map[string]string{}
	for rec, pool := range pools {
		found[rec.Pkg().Path()+"."+rec.Name()] = pool.owner.Name()
	}
	for rec, owner := range map[string]string{
		"liteworp/internal/sim.eventItem":          "Kernel",
		"liteworp/internal/medium.delivery":        "Medium",
		"liteworp/internal/routing.cachedRoute":    "Router",
		"liteworp/internal/routing.pendingForward": "Router",
		"liteworp/internal/packet.Packet":          "Pool",
	} {
		if got, ok := found[rec]; !ok || got != owner {
			t.Errorf("pool %s: discovered owner %q (found=%v), want %q", rec, got, ok, owner)
		}
	}
	// A frame's own Release reaches Pool.recycle, so p.Release() ends p.
	var frameRelease bool
	for fn, rel := range releases {
		if FuncID(fn) == "liteworp/internal/packet.(*Packet).Release" && rel.recv {
			frameRelease = true
		}
	}
	if !frameRelease {
		t.Error("packet.(*Packet).Release not discovered as a release of its receiver")
	}
}

// TestLoadModulePositions spot-checks that loaded packages carry
// module-relative paths and type information.
func TestLoadModulePositions(t *testing.T) {
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	var sim *Package
	for _, p := range pkgs {
		if p.Path == "liteworp/internal/sim" {
			sim = p
		}
	}
	if sim == nil {
		t.Fatal("internal/sim not loaded")
	}
	if sim.Dir != "internal/sim" {
		t.Errorf("Dir = %q, want internal/sim", sim.Dir)
	}
	if len(sim.Files) == 0 || sim.Types == nil || sim.Info == nil {
		t.Fatal("package missing files or type info")
	}
	name := sim.Fset.Position(sim.Files[0].Pos()).Filename
	if !strings.HasPrefix(name, "internal/sim/") {
		t.Errorf("file position %q is not module-relative", name)
	}
	if sim.Types.Scope().Lookup("Kernel") == nil {
		t.Error("sim.Kernel not in package scope")
	}
}

func TestAnalyzerRegistry(t *testing.T) {
	var names []string
	for _, a := range Analyzers() {
		if a.Name == "" || a.RunModule == nil {
			t.Errorf("analyzer %+v missing name or RunModule", a)
		}
		if AnalyzerByName(a.Name) != a {
			t.Errorf("AnalyzerByName(%q) mismatch", a.Name)
		}
		names = append(names, a.Name)
	}
	want := "nondet-taint no-raw-goroutine scoped-timers pool-lifetime kernel-ownership"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("suite = %s, want %s", got, want)
	}
	if AnalyzerByName("nope") != nil {
		t.Error("AnalyzerByName invented an analyzer")
	}
}

// BenchmarkLintModule times one full-module analysis pass — every
// analyzer including the call-graph build — over the loaded repository.
// Loading and type-checking is excluded (it is a fixed per-process cost
// shared with every other lint invocation); the analysis itself must stay
// cheap enough that self-lint remains a trivial CI gate.
func BenchmarkLintModule(b *testing.B) {
	pkgs, err := loadRepo()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := Run(pkgs, Analyzers()); len(diags) != 0 {
			b.Fatalf("module not lint-clean: %v", diags)
		}
	}
}

// TestRunOutputIsSorted pins the canonical diagnostic ordering every
// output mode relies on (file, line, column, analyzer, message): a
// scrambled batch must come back sorted, so -json output is
// byte-stable no matter which analyzer reported first.
func TestRunOutputIsSorted(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "b", File: "z.go", Line: 9, Col: 1, Message: "m"},
		{Analyzer: "a", File: "a.go", Line: 9, Col: 4, Message: "m"},
		{Analyzer: "b", File: "a.go", Line: 9, Col: 2, Message: "m"},
		{Analyzer: "a", File: "a.go", Line: 9, Col: 2, Message: "m"},
		{Analyzer: "a", File: "a.go", Line: 2, Col: 7, Message: "z"},
		{Analyzer: "a", File: "a.go", Line: 2, Col: 7, Message: "a"},
	}
	SortDiagnostics(diags)
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.File > b.File ||
			(a.File == b.File && a.Line > b.Line) ||
			(a.File == b.File && a.Line == b.Line && a.Col > b.Col) ||
			(a.File == b.File && a.Line == b.Line && a.Col == b.Col && a.Analyzer > b.Analyzer) ||
			(a.File == b.File && a.Line == b.Line && a.Col == b.Col && a.Analyzer == b.Analyzer && a.Message > b.Message) {
			t.Fatalf("diags[%d] and [%d] out of order: %v then %v", i-1, i, a, b)
		}
	}
	if diags[0].Message != "a" || diags[0].Line != 2 {
		t.Fatalf("unexpected first diagnostic: %v", diags[0])
	}
}
