package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"liteworp/internal/ordered"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path (module path + "/" + Dir).
	Path string
	// Dir is the module-relative directory, "" for the module root.
	Dir string
	// Fset positions every file; filenames are module-relative.
	Fset *token.FileSet
	// Files are the parsed non-test sources, in filename order.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
}

// LoadModule parses and type-checks every non-test package under the
// module rooted at root (the directory containing go.mod). Test files are
// excluded by design: the determinism contract binds simulation code, and
// tests get their nondeterminism shaken out by -shuffle instead.
//
// Standard-library imports are type-checked from GOROOT source via the
// stdlib "source" importer, keeping the loader free of x/tools.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	var specs []*pkgSpec
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		spec, err := parseDir(fset, root, path, modPath)
		if err != nil {
			return err
		}
		if spec != nil {
			specs = append(specs, spec)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return check(fset, modPath, specs)
}

// pkgSpec is a parsed-but-unchecked package.
type pkgSpec struct {
	path  string
	dir   string
	files []*ast.File
}

func parseDir(fset *token.FileSet, root, dir, modPath string) (*pkgSpec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}

	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		display := name
		if rel != "" {
			display = rel + "/" + name
		}
		f, err := parser.ParseFile(fset, display, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", display, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	path := modPath
	if rel != "" {
		path = modPath + "/" + rel
	}
	return &pkgSpec{path: path, dir: rel, files: files}, nil
}

// check type-checks the specs in dependency order and assembles Packages.
// It is shared by LoadModule and the test harness's synthetic loader.
func check(fset *token.FileSet, modPath string, specs []*pkgSpec) ([]*Package, error) {
	byPath := make(map[string]*pkgSpec, len(specs))
	for _, s := range specs {
		byPath[s.path] = s
	}
	order, err := topoSort(modPath, specs, byPath)
	if err != nil {
		return nil, err
	}

	im := &moduleImporter{
		std:   importer.ForCompiler(fset, "source", nil),
		local: make(map[string]*types.Package, len(specs)),
	}
	var pkgs []*Package
	for _, spec := range order {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: im}
		tpkg, err := conf.Check(spec.path, fset, spec.files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: typecheck %s: %w", spec.path, err)
		}
		im.local[spec.path] = tpkg
		pkgs = append(pkgs, &Package{
			Path:  spec.path,
			Dir:   spec.dir,
			Fset:  fset,
			Files: spec.files,
			Types: tpkg,
			Info:  info,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// topoSort orders specs so every module-local import is checked before its
// importers.
func topoSort(modPath string, specs []*pkgSpec, byPath map[string]*pkgSpec) ([]*pkgSpec, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(specs))
	var order []*pkgSpec
	var visit func(s *pkgSpec) error
	visit = func(s *pkgSpec) error {
		switch state[s.path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", s.path)
		}
		state[s.path] = visiting
		for _, dep := range localImports(modPath, s) {
			if d, ok := byPath[dep]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[s.path] = done
		order = append(order, s)
		return nil
	}
	// Deterministic traversal order.
	sorted := make([]*pkgSpec, len(specs))
	copy(sorted, specs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].path < sorted[j].path })
	for _, s := range sorted {
		if err := visit(s); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func localImports(modPath string, s *pkgSpec) []string {
	set := make(map[string]bool)
	for _, f := range s.files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == modPath || strings.HasPrefix(path, modPath+"/") {
				set[path] = true
			}
		}
	}
	return ordered.Keys(set)
}

// moduleImporter resolves module-local imports from the packages already
// checked this run and everything else from GOROOT source.
type moduleImporter struct {
	std   types.Importer
	local map[string]*types.Package
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.local[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadSource parses and type-checks an in-memory module — the fixture
// path used by the analyzer tests and by callers that want to lint
// generated code. pkgs maps import path to filename to source text.
func LoadSource(modPath string, pkgs map[string]map[string]string) ([]*Package, error) {
	fset := token.NewFileSet()
	var specs []*pkgSpec
	for _, path := range ordered.Keys(pkgs) {
		files := pkgs[path]
		dir := ""
		if path != modPath {
			var ok bool
			dir, ok = strings.CutPrefix(path, modPath+"/")
			if !ok {
				return nil, fmt.Errorf("lint: import path %q outside module %q", path, modPath)
			}
		}
		spec := &pkgSpec{path: path, dir: dir}
		for _, name := range ordered.Keys(files) {
			display := name
			if dir != "" {
				display = dir + "/" + name
			}
			f, err := parser.ParseFile(fset, display, files[name], parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: parse %s: %w", display, err)
			}
			spec.files = append(spec.files, f)
		}
		specs = append(specs, spec)
	}
	return check(fset, modPath, specs)
}
