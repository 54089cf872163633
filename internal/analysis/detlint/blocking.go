package detlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"columbia/internal/analysis/ir"
)

// A blockKind names one class of operation that can block its goroutine.
type blockKind int

const (
	blockSend blockKind = iota
	blockRecv
	blockRange
	blockSelect
	blockWait
)

// A blockingOp is one operation that can block the goroutine running it.
type blockingOp struct {
	kind blockKind
	pos  token.Pos
	ch   ast.Expr // the channel a receive or range reads; nil otherwise
	node int      // index in its block's Nodes; len(Nodes) for a select head's select
}

// blockingOps is the suite's one decision of what can block: per block of
// g, in execution order, every channel send and receive, range over a
// channel, zero-argument Wait call, and select without a default. A select
// case's own communication blocks as part of its select, which sits at the
// end of the select's head block at the `select` keyword. A go or defer
// statement evaluates only its call's function value and arguments where it
// is written; ir replays a deferred call in the exit block, where it is
// classified again. chanlive and lockorder each filter the result.
func blockingOps(info *types.Info, g *ir.Graph) map[*ir.Block][]blockingOp {
	ops := make(map[*ir.Block][]blockingOp)
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			var own ast.Node // a select case's communication
			if b.Kind == "select.case" && i == 0 {
				own = commOp(n)
			}
			add := func(kind blockKind, pos token.Pos, ch ast.Expr) {
				ops[b] = append(ops[b], blockingOp{kind, pos, ch, i})
			}
			walkHere(n, func(sub ast.Node) bool {
				if sub == own {
					return true
				}
				switch x := sub.(type) {
				case *ast.SendStmt:
					add(blockSend, x.Arrow, nil)
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						add(blockRecv, x.OpPos, x.X)
					}
				case *ast.RangeStmt:
					if rangesOverChan(info, x) {
						add(blockRange, x.For, x.X)
					}
				case *ast.CallExpr:
					if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && len(x.Args) == 0 {
						add(blockWait, x.Pos(), nil)
					}
				}
				return true
			})
		}
	}
	for _, br := range g.Branches {
		if br.Kind == "select" && !hasDefault(br.Block) {
			ops[br.Block] = append(ops[br.Block], blockingOp{blockSelect, br.Pos, nil, len(br.Block.Nodes)})
		}
	}
	return ops
}

// walkHere visits what block node n evaluates where it stands: ir.Walk,
// except that a go or defer statement contributes only its call's function
// value and arguments.
func walkHere(n ast.Node, fn func(ast.Node) bool) {
	var call *ast.CallExpr
	switch s := n.(type) {
	case *ast.GoStmt:
		call = s.Call
	case *ast.DeferStmt:
		call = s.Call
	default:
		ir.Walk(n, fn)
		return
	}
	ir.Walk(call.Fun, fn)
	for _, a := range call.Args {
		ir.Walk(a, fn)
	}
}

// commOp returns the send or receive a select case communicates with.
func commOp(comm ast.Node) ast.Node {
	switch s := comm.(type) {
	case *ast.ExprStmt:
		return ast.Unparen(s.X)
	case *ast.AssignStmt:
		return ast.Unparen(s.Rhs[0])
	}
	return comm // *ast.SendStmt
}

// hasDefault reports whether a select head has a default clause.
func hasDefault(head *ir.Block) bool {
	for _, s := range head.Succs {
		if s.Kind == "select.default" {
			return true
		}
	}
	return false
}

// rangesOverChan reports whether the range statement iterates a channel.
func rangesOverChan(info *types.Info, rs *ast.RangeStmt) bool {
	t := info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
