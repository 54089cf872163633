package detlint

import (
	"go/ast"
	"go/types"
	"strings"

	"columbia/internal/analysis"
)

// WireCover proves the wire structs can't drift: a struct annotated
// //detlint:wire <func>... must have every exported field read somewhere
// in the transitive in-package call closure of the named cover functions
// (package-level functions or Type.Method). The cover functions are where
// the struct becomes authoritative — the cache-key builder, the handshake
// consumer — so an exported field never read there is a field the wire
// carries but nothing interprets: exactly the silent skew dist's runtime
// key-drift check exists to catch, found at build time instead.
//
// Passing the whole struct to a dynamic callee (a function-typed value or
// parameter) counts as covering the remaining fields — the consumer is
// behind an injection point the static walk cannot enter. Passing it to a
// static call does not: the callee is simply walked. Unexported fields
// are exempt (gob never encodes them).
var WireCover = &analysis.Analyzer{
	Name: "wirecover",
	Doc:  "prove every exported field of annotated wire structs is consumed by its cover functions",
	Run:  runWireCover,
}

func runWireCover(pass *analysis.Pass) error {
	decls := declIndex(pass.TypesInfo, pass.Files)
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				names, ok := WireMarker(gd, ts)
				if !ok {
					continue
				}
				checkWireStruct(pass, decls, ts, names)
			}
		}
	}
	return nil
}

func checkWireStruct(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, ts *ast.TypeSpec, names string) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		pass.Reportf(ts.Pos(), "//detlint:wire annotates %s, which is not a struct", ts.Name.Name)
		return
	}
	tn, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
	if tn == nil {
		return
	}
	target, ok := tn.Type().(*types.Named)
	if !ok {
		return
	}
	covers := strings.Fields(names)
	if len(covers) == 0 {
		pass.Reportf(ts.Pos(), "//detlint:wire on %s names no cover functions", ts.Name.Name)
		return
	}
	var roots []*types.Func
	for _, name := range covers {
		fn := resolveCover(pass.Pkg, name)
		if fn == nil {
			pass.Reportf(ts.Pos(), "//detlint:wire on %s names unknown cover function %q — it must be a package-level func or Type.Method in this package", ts.Name.Name, name)
			return
		}
		roots = append(roots, fn)
	}
	reach := closure(pass.TypesInfo, decls, roots)
	if len(reach) == 0 {
		pass.Reportf(ts.Pos(), "//detlint:wire on %s: no cover function body found in this package", ts.Name.Name)
		return
	}

	read := make(map[string]bool)
	delegated := false
	for _, fd := range reach {
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if s := pass.TypesInfo.Selections[x]; s != nil && s.Kind() == types.FieldVal {
					markWireReads(target, s, read)
				}
			case *ast.CallExpr:
				if callee(pass.TypesInfo, x) != nil {
					return true
				}
				// Dynamic call: the whole struct passed through an
				// injection point covers whatever the walk can't see.
				for _, a := range x.Args {
					t := pass.TypesInfo.TypeOf(a)
					if t == nil {
						continue
					}
					if nt, ok := derefType(t).(*types.Named); ok && nt.Origin() == target.Origin() {
						delegated = true
					}
				}
			}
			return true
		})
		if delegated {
			break
		}
	}
	if delegated {
		return
	}
	for _, fl := range st.Fields.List {
		for _, name := range fl.Names {
			if !name.IsExported() || read[name.Name] {
				continue
			}
			pass.Reportf(name.Pos(), "wire field %s.%s is never read in cover function(s) %s — a field on the wire that the key/handshake ignores can drift silently between processes; consume it, or justify with //detlint:allow wirecover <reason>", ts.Name.Name, name.Name, strings.Join(covers, ", "))
		}
	}
}

// markWireReads records a field read when the selection's receiver (or an
// embedded step along its index path) is the target struct.
func markWireReads(target *types.Named, s *types.Selection, read map[string]bool) {
	t := derefType(s.Recv())
	for _, idx := range s.Index() {
		st, ok := t.Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			return
		}
		field := st.Field(idx)
		if named, ok := t.(*types.Named); ok && named.Origin() == target.Origin() {
			read[field.Name()] = true
		}
		t = derefType(field.Type())
	}
}

// resolveCover resolves "Func" or "Type.Method" in the package scope.
func resolveCover(pkg *types.Package, name string) *types.Func {
	if typ, method, ok := strings.Cut(name, "."); ok {
		obj := pkg.Scope().Lookup(typ)
		tn, _ := obj.(*types.TypeName)
		if tn == nil {
			return nil
		}
		named, _ := tn.Type().(*types.Named)
		if named == nil {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == method {
				return m
			}
		}
		return nil
	}
	fn, _ := pkg.Scope().Lookup(name).(*types.Func)
	return fn
}
