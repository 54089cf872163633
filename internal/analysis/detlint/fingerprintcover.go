package detlint

import (
	"go/ast"
	"go/types"

	"columbia/internal/analysis"
)

// FingerprintCover verifies that cache keys cover their inputs: for every
// named struct type T in the package that declares a Fingerprint method,
// each field of T must be read somewhere inside T's fingerprint functions
// (the Fingerprint method plus every same-package function it transitively
// calls, e.g. vmpi's clusterFingerprint helper).
//
// Nested structs are checked one level deep: when a field's type is a
// named struct and the fingerprint reads it field-by-field, every exported
// field of that struct must be read too — forgetting one (say, a new
// omp.ModelOpts knob) would let two different configurations share a memo
// cache entry. A nested struct that is instead delegated whole to a method
// call (c.Faults.Fingerprint(), c.Placement.Locs()) is that method's
// responsibility and is not expanded here; fault.Plan's own Fingerprint is
// checked when this analyzer runs on package fault.
var FingerprintCover = &analysis.Analyzer{
	Name: "fingerprintcover",
	Doc:  "every field of a struct with a Fingerprint method must be read by its fingerprint functions",
	Run:  runFingerprintCover,
}

// fpTarget is one struct type whose fingerprint coverage is required.
type fpTarget struct {
	named *types.Named
	st    *types.Struct
	fp    *types.Func
}

func runFingerprintCover(pass *analysis.Pass) error {
	targets := fpTargets(pass)
	if len(targets) == 0 {
		return nil
	}
	decls := declIndex(pass.TypesInfo, pass.Files)
	roots := make([]*types.Func, len(targets))
	for i, tgt := range targets {
		roots[i] = tgt.fp
	}
	fpSet := closure(pass.TypesInfo, decls, roots)
	covered, delegated := coverage(pass, fpSet)
	qual := func(p *types.Package) string {
		if p == pass.Pkg {
			return ""
		}
		return p.Name()
	}
	for _, tgt := range targets {
		fpDecl := decls[tgt.fp]
		if fpDecl == nil {
			continue // method promoted from an embedded type; its own package checks it
		}
		tname := types.TypeString(tgt.named, qual)
		for i := 0; i < tgt.st.NumFields(); i++ {
			f := tgt.st.Field(i)
			if !covered[f] {
				pass.Reportf(f.Pos(),
					"%s.%s is never read inside %s's fingerprint functions; fold it into Fingerprint() or suppress with //detlint:allow fingerprintcover <reason>",
					tname, f.Name(), tname)
				continue
			}
			if delegated[f] {
				continue
			}
			named, st := namedStructOf(f.Type())
			if st == nil {
				continue
			}
			nname := types.TypeString(named, qual)
			for j := 0; j < st.NumFields(); j++ {
				g := st.Field(j)
				if !g.Exported() && g.Pkg() != pass.Pkg {
					continue // unreadable from here; the owning package is responsible
				}
				if covered[g] {
					continue
				}
				pos := g.Pos()
				if g.Pkg() != pass.Pkg || !pos.IsValid() {
					pos = fpDecl.Name.Pos()
				}
				pass.Reportf(pos,
					"%s.%s (reached through %s.%s) is never read inside %s's fingerprint functions; read it there or delegate %s.%s to a fingerprinting method",
					nname, g.Name(), tname, f.Name(), tname, tname, f.Name())
			}
		}
	}
	return nil
}

// fpTargets finds the package's named struct types with a declared
// Fingerprint method.
func fpTargets(pass *analysis.Pass) []fpTarget {
	var targets []fpTarget
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == "Fingerprint" {
				targets = append(targets, fpTarget{named: named, st: st, fp: m})
				break
			}
		}
	}
	return targets
}

// coverage walks the fingerprint functions and records every struct field
// they read, plus the fields whose values receive a method call — the
// delegation escape hatch for nested structs.
func coverage(pass *analysis.Pass, fpSet map[*types.Func]*ast.FuncDecl) (covered, delegated map[*types.Var]bool) {
	covered = make(map[*types.Var]bool)
	delegated = make(map[*types.Var]bool)
	for _, d := range fpSet {
		if d.Body == nil {
			continue
		}
		ast.Inspect(d.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := pass.TypesInfo.Selections[sel]
			if s == nil {
				return true
			}
			switch s.Kind() {
			case types.FieldVal:
				// Mark every field along the (possibly embedded) path.
				t := s.Recv()
				for _, idx := range s.Index() {
					st := structOf(t)
					if st == nil || idx >= st.NumFields() {
						break
					}
					f := st.Field(idx)
					covered[f] = true
					t = f.Type()
				}
			case types.MethodVal:
				if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
					if is := pass.TypesInfo.Selections[inner]; is != nil && is.Kind() == types.FieldVal {
						if f, ok := is.Obj().(*types.Var); ok {
							delegated[f] = true
						}
					}
				}
			}
			return true
		})
	}
	return covered, delegated
}
