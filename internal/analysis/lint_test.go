package analysis_test

import (
	"errors"
	"fmt"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"testing"

	"columbia/internal/analysis/analysistest"
	"columbia/internal/analysis/checker"
	"columbia/internal/analysis/detlint"
)

// modulePath is the module's path in go.mod.
const modulePath = "columbia"

// TestLint runs the detlint suite over the module, so a violation of a
// determinism or communication invariant fails go test ./... (DESIGN.md
// §6). It lints the units go vet analyzes: every package together with
// its in-package test files, and every external _test package. Packages
// are read in the default build configuration of this host, which is why
// TestAllowAudit still parses the build-tagged files on its own. A
// package that does not load fails the test; nothing is skipped.
func TestLint(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	imp := &moduleImporter{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		sources: make(map[string]*build.Package),
		checked: make(map[string]*types.Package),
	}
	var pkgs []*build.Package
	for _, pd := range analysistest.ModuleDirs(t, root, modulePath) {
		bp, err := build.ImportDir(pd.Dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", pd.Path, err)
		}
		bp.ImportPath = pd.Path
		imp.sources[pd.Path] = bp
		pkgs = append(pkgs, bp)
	}
	if len(pkgs) == 0 {
		t.Fatalf("found no package under %s: the walk is broken", root)
	}
	xtests := 0
	for _, bp := range pkgs {
		lint(t, imp, bp.ImportPath, join(bp.Dir, bp.GoFiles, bp.TestGoFiles))
		if len(bp.XTestGoFiles) > 0 {
			lint(t, imp, bp.ImportPath+"_test", join(bp.Dir, bp.XTestGoFiles))
			xtests++
		}
	}
	t.Logf("linted %d units: %d packages with their in-package tests, %d external test packages",
		len(pkgs)+xtests, len(pkgs), xtests)
}

// lint type-checks one unit and reports each surviving diagnostic as
// "file:line:col: analyzer: message".
func lint(t *testing.T, imp *moduleImporter, pkgpath string, files []string) {
	t.Helper()
	pkg, err := analysistest.TypeCheck(imp.fset, pkgpath, files, imp)
	if err != nil {
		t.Errorf("%s: %v", pkgpath, err)
		return
	}
	diags, err := checker.Run(pkg, detlint.Suite, detlint.Names())
	if err != nil {
		t.Error(err)
		return
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", imp.fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// moduleImporter type-checks a module package from source the first time
// it is imported, without its test files, the way its importers see it,
// and hands every other path to the standard library's source importer.
// An external test package sees the package under test this way too, so
// names that only its in-package test files declare are undefined there.
type moduleImporter struct {
	fset    *token.FileSet
	std     types.Importer
	sources map[string]*build.Package // the module's packages, by import path
	checked map[string]*types.Package // nil while the package is being checked
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	bp, ok := m.sources[path]
	if !ok {
		return m.std.Import(path)
	}
	if pkg, seen := m.checked[path]; seen {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	m.checked[path] = nil
	pkg, err := analysistest.TypeCheck(m.fset, path, join(bp.Dir, bp.GoFiles), m)
	if err != nil {
		delete(m.checked, path)
		return nil, err
	}
	m.checked[path] = pkg.Pkg
	return pkg.Pkg, nil
}

// join returns the paths of the named files in dir.
func join(dir string, names ...[]string) []string {
	var paths []string
	for _, list := range names {
		for _, name := range list {
			paths = append(paths, filepath.Join(dir, name))
		}
	}
	return paths
}
