package detlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"columbia/internal/analysis"
)

// NoDeterm forbids the nondeterminism sources that would break the
// repository's byte-identity guarantee (-j 1 and -j 8 must produce
// identical tables) inside the simulator packages:
//
//   - any reference to time.Now or time.Since (Since calls Now
//     internally), which leak wall-clock time into simulated results;
//   - the global math/rand source (rand.Intn, rand.Float64, rand.Seed,
//     ...), whose stream is shared process-wide and therefore depends on
//     scheduling; explicitly seeded sources via rand.New(rand.NewSource)
//     remain available;
//   - `range` over a map whose body feeds order-sensitive sinks: writes
//     to a strings.Builder / bytes.Buffer / fmt.Fprint* / io.WriteString,
//     an append to a slice that is never sorted later in the same
//     function, or a floating-point accumulation (x += v), all of which
//     expose Go's randomized map iteration order.
//
// time.After and time.Sleep are allowed: they shape scheduling and
// retry pacing, not simulated results.
var NoDeterm = &analysis.Analyzer{
	Name: "nodeterm",
	Doc:  "forbid wall-clock reads, the global math/rand source, and map-iteration-ordered output in simulator packages",
	Run:  runNoDeterm,
}

// randConstructors are the math/rand package-level functions that build
// explicitly seeded generators; everything else at package level draws
// from or mutates the shared global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNoDeterm(pass *analysis.Pass) error {
	if !inSimScope(pass) {
		return nil
	}
	for _, f := range pass.Files {
		bodies := funcBodies(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				// Uses is keyed by the identifier itself for both
				// qualified (time.Now) and dot-imported references.
				checkWallClockUse(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n, bodies)
			}
			return true
		})
	}
	return nil
}

// checkWallClockUse reports references to time.Now / time.Since and to
// global math/rand functions.
func checkWallClockUse(pass *analysis.Pass, id *ast.Ident) {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods like rand.Rand.Intn or time.Time.Sub are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now":
			pass.Reportf(id.Pos(), "time.Now leaks wall-clock time into a simulator package; results must be a function of the Config alone (inject a clock or use virtual time)")
		case "Since":
			pass.Reportf(id.Pos(), "time.Since reads the wall clock (it calls time.Now internally); use virtual time or an injected clock")
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(id.Pos(), "%s.%s uses the process-global random source; draw from an explicitly seeded rand.New(rand.NewSource(seed)) so streams are deterministic", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRange reports map-range loops whose bodies feed order-sensitive
// sinks.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, bodies []*ast.BlockStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if rs.Body == nil {
		return
	}
	var writerSink bool
	var appendTargets []*types.Var
	var floatAccum bool
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isOrderedWrite(pass, n) {
				writerSink = true
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(n.Lhs) == 1 && isFloat(pass, n.Lhs[0]) && declaredOutside(pass, n.Lhs[0], rs) {
					floatAccum = true
				}
			case token.ASSIGN:
				if v := appendTarget(pass, n, rs); v != nil {
					appendTargets = append(appendTargets, v)
				}
			}
		}
		return true
	})
	switch {
	case writerSink:
		pass.Reportf(rs.For, "map iteration order leaks into output: this range over a map writes to an output sink inside the loop; collect and sort keys first")
	case floatAccum:
		pass.Reportf(rs.For, "floating-point accumulation over map iteration is order-dependent; sum in sorted key order")
	default:
		for _, v := range appendTargets {
			if !sortedAfter(pass, v, rs, bodies) {
				pass.Reportf(rs.For, "range over map appends to %q without a later sort in the same function; map iteration order is randomized per run", v.Name())
				return
			}
		}
	}
}

// isOrderedWrite reports calls that emit into an ordered output stream:
// strings.Builder / bytes.Buffer write methods, fmt.Fprint*, and
// io.WriteString.
func isOrderedWrite(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		n, ok := recv.(*types.Named)
		if !ok {
			return false
		}
		path, name := "", n.Obj().Name()
		if n.Obj().Pkg() != nil {
			path = n.Obj().Pkg().Path()
		}
		isBuf := (path == "strings" && name == "Builder") || (path == "bytes" && name == "Buffer")
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return isBuf
		}
		return false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		switch fn.Name() {
		case "Fprint", "Fprintf", "Fprintln":
			return true
		}
	case "io":
		return fn.Name() == "WriteString"
	}
	return false
}

// isFloat reports whether e's type has a floating-point underlying.
func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// appendTarget matches `x = append(x, ...)` where x is an identifier
// declared outside the loop, and returns x's object.
func appendTarget(pass *analysis.Pass, as *ast.AssignStmt, rs *ast.RangeStmt) *types.Var {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || !declaredOutside(pass, id, rs) {
		return nil
	}
	return v
}

// declaredOutside reports whether e is an identifier whose object is
// declared outside the range statement — loop-local state cannot carry
// iteration order past the loop by itself.
func declaredOutside(pass *analysis.Pass, e ast.Expr, rs *ast.RangeStmt) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

// sortedAfter reports whether, somewhere after the loop in the same
// enclosing function, v is passed (possibly inside a larger expression)
// to a sort or slices call.
func sortedAfter(pass *analysis.Pass, v *types.Var, rs *ast.RangeStmt, bodies []*ast.BlockStmt) bool {
	body := enclosingBody(bodies, rs.Pos())
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
