// Package analysistest golden-tests analyzers against fixture packages:
// each fixture file annotates the lines where diagnostics must appear with
// comments of the form
//
//	code() // want "regexp" `another regexp`
//
// and Run fails the test when reported diagnostics and want annotations do
// not match one-to-one per line. Diagnostics are matched against the
// composite string "<analyzer>: <message>", so fixtures can pin either the
// analyzer, the message, or both. A want may also ride inside a block
// comment (`/* want "..." */`) when the line's trailing comment is already
// claimed — e.g. when the diagnostic under test is about a
// //detlint:allow comment itself. The mechanics mirror
// golang.org/x/tools/go/analysis/analysistest, which this package
// reimplements on the standard library (see package analysis for why).
//
// Fixture packages live under <testdata>/src/<path>/ and may import only
// the standard library; they are type-checked from source, so fixtures
// must compile. Files named *_test.go are loaded like any other fixture
// file — analyzers that exempt test files see realistic filenames.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"columbia/internal/analysis"
	"columbia/internal/analysis/checker"
)

// sourceImporter type-checks stdlib imports from GOROOT source. One shared
// instance caches every package it has loaded for the life of the test
// process; its FileSet is private because imported positions are never
// reported.
var sourceImporter = importer.ForCompiler(token.NewFileSet(), "source", nil)

// Run loads the fixture package at <testdata>/src/<pkgpath>, applies run
// via the checker (so //detlint:allow suppression is active, exactly as
// in the lint of the module), and compares diagnostics against the
// fixture's want annotations. known lists the full suite's analyzer names
// so fixtures may carry allow comments for analyzers outside this run.
func Run(t *testing.T, testdata, pkgpath string, run []*analysis.Analyzer, known []string) {
	t.Helper()
	pkg := Load(t, testdata, pkgpath)
	diags, err := checker.Run(pkg, run, known)
	if err != nil {
		t.Fatalf("checker.Run: %v", err)
	}
	check(t, pkg, diags)
}

// Load parses and type-checks every .go file of the fixture package at
// <testdata>/src/<pkgpath>, for tests that drive the checker themselves.
func Load(t *testing.T, testdata, pkgpath string) *checker.Package {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkgpath)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatalf("fixture dir %s has no .go files", dir)
	}
	pkg, err := TypeCheck(token.NewFileSet(), pkgpath, names, sourceImporter)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgpath, err)
	}
	return pkg
}

// TypeCheck parses the named files into fset, with comments, and
// type-checks them as the package pkgpath, resolving its imports
// through imp. The result carries every types.Info map an analyzer
// reads.
func TypeCheck(fset *token.FileSet, pkgpath string, filenames []string, imp types.Importer) (*checker.Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := &types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgpath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &checker.Package{Fset: fset, Files: files, Pkg: tpkg, Info: info}, nil
}

// A PackageDir is one directory of a module and the import path of the
// package it holds.
type PackageDir struct {
	Dir, Path string
}

// ModuleDirs returns, in lexical order, root and every directory below it
// that can hold a package of the module rooted there, whose module path
// is modpath. Hidden directories, testdata, bin and nested modules hold
// no package of the module and are skipped with everything below them.
// Whether a directory holds Go files is left to the caller.
func ModuleDirs(t *testing.T, root, modpath string) []PackageDir {
	t.Helper()
	var dirs []PackageDir
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root {
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" || name == "bin" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		dirs = append(dirs, PackageDir{Dir: p, Path: path.Join(modpath, filepath.ToSlash(rel))})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// A want is one expected-diagnostic annotation.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	source  string
	matched bool
}

// wantRx finds the annotation list inside a comment; each following token
// is one interpreted or raw quoted regexp.
var wantRx = regexp.MustCompile("(?:^|[ \t])want[ \t]+((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)[ \t]*)+)")

var quotedRx = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// parseWants extracts every want annotation from the fixture's comments.
func parseWants(t *testing.T, pkg *checker.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				for _, q := range quotedRx.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", posn, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", posn, pat, err)
					}
					wants = append(wants, &want{file: posn.Filename, line: posn.Line, re: re, source: q})
				}
			}
		}
	}
	return wants
}

// check matches diagnostics against wants one-to-one per line.
func check(t *testing.T, pkg *checker.Package, diags []checker.Diag) {
	t.Helper()
	wants := parseWants(t, pkg)
	for _, d := range diags {
		posn := pkg.Fset.Position(d.Pos)
		text := d.Analyzer + ": " + d.Message
		found := false
		for _, w := range wants {
			if !w.matched && w.file == posn.Filename && w.line == posn.Line && w.re.MatchString(text) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", posn, text)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %s", w.file, w.line, w.source)
		}
	}
}
