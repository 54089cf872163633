package detlint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

func loadSrc(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, info, pkg
}

func funcBody(f *ast.File, name string) *ast.FuncDecl {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	return nil
}

// TestTaint proves collsplit's fixed-point propagation: the seed flows through a
// chain of assignments and a multi-assign, and unrelated locals stay
// clean.
func TestTaint(t *testing.T) {
	src := `package p
func seed() int { return 1 }
func pair(v int) (int, int) { return v, v }
func f() int {
	a := seed()
	b := a + 1
	c, d := pair(b)
	clean, e := 5, 7
	_, _, _ = d, clean, e
	return c
}
`
	_, f, info, _ := loadSrc(t, src)
	fd := funcBody(f, "f")
	isSeed := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "seed"
	}
	tainted := taint(info, fd.Body, isSeed)
	names := map[string]bool{}
	for obj := range tainted {
		names[obj.Name()] = true
	}
	for _, want := range []string{"a", "b", "c", "d"} {
		if !names[want] {
			t.Errorf("local %q not tainted; got %v", want, names)
		}
	}
	if names["clean"] {
		t.Errorf("local clean tainted spuriously: %v", names)
	}
}

// TestClosure proves the transitive in-package walk fingerprintcover and
// wirecover share: reached through a chain and a method, not through dead
// code, generics resolved to their origins.
func TestClosure(t *testing.T) {
	src := `package p
type s struct{}
func (s) m() { helper() }
func root() { s{}.m(); gen[int](3) }
func helper() {}
func gen[T any](v T) { leaf() }
func leaf() {}
func dead() {}
`
	_, f, info, pkg := loadSrc(t, src)
	decls := declIndex(info, []*ast.File{f})
	rootFn, _ := pkg.Scope().Lookup("root").(*types.Func)
	if rootFn == nil {
		t.Fatal("root not resolved")
	}
	cl := closure(info, decls, []*types.Func{rootFn})
	got := map[string]bool{}
	for fn := range cl {
		got[fn.Name()] = true
	}
	for _, want := range []string{"root", "m", "helper", "gen", "leaf"} {
		if !got[want] {
			t.Errorf("closure missing %q; got %v", want, got)
		}
	}
	if got["dead"] {
		t.Errorf("closure includes unreachable dead(): %v", got)
	}
}
