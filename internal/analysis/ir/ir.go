// Package ir is the control-flow layer of the analysis suite: a
// per-function control-flow graph built from syntax alone (if/for/range/
// switch/type-switch/select/defer/goto and labeled break/continue all
// lowered to blocks and edges), a generic worklist solver over it, and
// postdominators. chanlive (must the stop token be observed before every
// blocking operation), lockorder (which locks are held on every path to
// this point) and collsplit (is this collective control-dependent on a
// rank-dependent branch) are built on it. Like package analysis
// itself, the shapes deliberately stay close to the upstream
// golang.org/x/tools/go/cfg vocabulary so a migration would be an import
// change, not a rewrite (x/tools cannot be vendored here; builds must work
// from a clean module cache).
//
// # Block contents
//
// Blocks hold only atomic nodes: simple statements, and the controlling
// expressions of the constructs that were lowered (an if's condition, a
// switch's tag and case expressions, a select clause's communication
// statement). Compound statements never appear with their bodies — the one
// exception is *ast.RangeStmt, kept whole in its loop-head block because
// its key/value bindings and ranged operand belong together; Walk visits
// it shallowly. Deferred calls are modeled at function exit: the
// *ast.DeferStmt appears at its registration point (argument evaluation
// happens there) and the deferred call expression is replayed in the exit
// block, most-recently-registered first.
package ir

import (
	"go/ast"
	"go/token"
)

// A Block is one straight-line run of atomic nodes with a single entry and
// explicit successor edges.
type Block struct {
	// Index is the block's creation order, unique within its Graph; the
	// entry block is always index 0 and the exit block index 1.
	Index int
	// Kind names the construct the block was lowered from ("entry",
	// "exit", "if.then", "for.head", "select.default", ...) for dumps and
	// diagnostics.
	Kind string
	// Nodes are the block's atomic statements and expressions, in
	// execution order. See the package comment for what may appear here.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges, in creation order.
	Succs []*Block
	Preds []*Block
}

// A Branch records one conditional construct: the block that evaluates the
// controlling expressions and the expressions themselves. Analyzers that
// reason about control dependence (collsplit's rank-guard computation)
// consume these instead of re-deriving which node in a block is a
// condition.
type Branch struct {
	// Block evaluates Conds; its successor edges are the branch targets.
	Block *Block
	// Kind is "if", "for", "range", "switch", "typeswitch" or "select".
	Kind string
	// Pos is the construct's keyword: where a finding about the construct
	// as a whole goes, such as a case-less `select {}`.
	Pos token.Pos
	// Conds are the controlling expressions: the if/for condition, the
	// range operand, or the switch tag followed by every case expression.
	// Empty for select and bare `for {}` heads.
	Conds []ast.Expr
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	Entry *Block
	Exit  *Block
	// Blocks lists every block in creation order (Entry first, Exit
	// second), including blocks left unreachable by returns and jumps.
	Blocks []*Block
	// Branches lists every conditional construct, in source order.
	Branches []Branch
	// Defers lists every defer statement, in source order; their call
	// expressions are replayed in Exit.Nodes in reverse order.
	Defers []*ast.DeferStmt
}

// New builds the control-flow graph of one function body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, labels: make(map[string]*Block)}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	b.stmt(body, "")
	b.jump(b.cur, b.g.Exit)
	for i := len(b.g.Defers) - 1; i >= 0; i-- {
		b.g.Exit.Nodes = append(b.g.Exit.Nodes, b.g.Defers[i].Call)
	}
	return b.g
}

// Reachable returns the set of blocks reachable from the entry block.
func (g *Graph) Reachable() map[*Block]bool {
	reach := ReachableFrom(g.Entry)
	reach[g.Entry] = true
	return reach
}

// ReachableFrom returns the set of blocks reachable from b along successor
// edges, excluding b itself unless a cycle returns to it.
func ReachableFrom(b *Block) map[*Block]bool {
	reach := make(map[*Block]bool)
	var visit func(s *Block)
	visit = func(s *Block) {
		if reach[s] {
			return
		}
		reach[s] = true
		for _, n := range s.Succs {
			visit(n)
		}
	}
	for _, s := range b.Succs {
		visit(s)
	}
	return reach
}

// Walk visits node n and its relevant sub-nodes shallowly: it does not
// descend into nested function literals (their bodies are separate graphs,
// built by the caller when wanted) and visits a *ast.RangeStmt's key,
// value and operand but never its body (which lives in other blocks).
// Returning false from fn prunes the subtree, as with ast.Inspect.
func Walk(n ast.Node, fn func(ast.Node) bool) {
	switch x := n.(type) {
	case *ast.RangeStmt:
		if !fn(x) {
			return
		}
		if x.Key != nil {
			Walk(x.Key, fn)
		}
		if x.Value != nil {
			Walk(x.Value, fn)
		}
		Walk(x.X, fn)
	case *ast.FuncLit:
		fn(x) // the literal is visible as a value; its body is not
	default:
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil {
				return false
			}
			if fl, ok := c.(*ast.FuncLit); ok {
				return fn(fl) && false
			}
			return fn(c)
		})
	}
}

// builder carries the construction state: the block under construction
// (nil after a terminator — the next statement opens an unreachable
// block), the break/continue frame stack, and the label table shared by
// goto and labeled loops.
type builder struct {
	g      *Graph
	cur    *Block
	frames []frame
	labels map[string]*Block
}

// A frame is one enclosing breakable construct. cont is nil for switch and
// select frames, which break but do not continue.
type frame struct {
	label     string
	brk, cont *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// ensure opens a fresh (unreachable) block when the previous one was
// terminated, so statements after return/break/goto still land somewhere.
func (b *builder) ensure() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *builder) add(n ast.Node) {
	b.ensure().Nodes = append(b.cur.Nodes, n)
}

func (b *builder) jump(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// labelBlock returns the block a label names, creating it on first use so
// forward gotos resolve.
func (b *builder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

// findFrame resolves a break (wantCont=false) or continue (wantCont=true)
// to its target frame.
func (b *builder) findFrame(label string, wantCont bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if label != "" && f.label != label {
			continue
		}
		if wantCont && f.cont == nil {
			continue
		}
		return f
	}
	return nil
}

// stmt lowers one statement. label is the pending label when the statement
// is the body of a LabeledStmt, so `L: for` registers L on the loop frame.
func (b *builder) stmt(s ast.Stmt, label string) {
	switch x := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range x.List {
			b.stmt(st, "")
		}
	case *ast.LabeledStmt:
		lb := b.labelBlock(x.Label.Name)
		b.jump(b.ensure(), lb)
		b.cur = lb
		b.stmt(x.Stmt, x.Label.Name)
	case *ast.BranchStmt:
		b.branch(x)
	case *ast.ReturnStmt:
		b.add(x)
		b.jump(b.cur, b.g.Exit)
		b.cur = nil
	case *ast.DeferStmt:
		b.add(x)
		b.g.Defers = append(b.g.Defers, x)
	case *ast.ExprStmt:
		b.add(x)
		// A panic call terminates the path at the exit block (where the
		// deferred calls run). Syntax-only: a shadowed `panic` would be
		// mis-lowered, which no code in this repository does.
		if call, ok := x.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				b.jump(b.cur, b.g.Exit)
				b.cur = nil
			}
		}
	case *ast.IfStmt:
		b.ifStmt(x)
	case *ast.ForStmt:
		b.forStmt(x, label)
	case *ast.RangeStmt:
		b.rangeStmt(x, label)
	case *ast.SwitchStmt:
		b.switchStmt(x, label)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(x, label)
	case *ast.SelectStmt:
		b.selectStmt(x, label)
	case *ast.EmptyStmt:
	default:
		// Assign, Send, IncDec, Go, Decl: atomic.
		b.add(s)
	}
}

func (b *builder) branch(x *ast.BranchStmt) {
	label := ""
	if x.Label != nil {
		label = x.Label.Name
	}
	switch x.Tok {
	case token.GOTO:
		b.jump(b.ensure(), b.labelBlock(label))
		b.cur = nil
	case token.BREAK:
		if f := b.findFrame(label, false); f != nil {
			b.jump(b.ensure(), f.brk)
		}
		b.cur = nil
	case token.CONTINUE:
		if f := b.findFrame(label, true); f != nil {
			b.jump(b.ensure(), f.cont)
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Lowered by switchStmt, which peeks at the clause tail; the
		// statement itself contributes no node or edge here.
	}
}

func (b *builder) ifStmt(x *ast.IfStmt) {
	if x.Init != nil {
		b.add(x.Init)
	}
	b.add(x.Cond)
	head := b.cur
	b.g.Branches = append(b.g.Branches, Branch{Block: head, Kind: "if", Pos: x.If, Conds: []ast.Expr{x.Cond}})
	then := b.newBlock("if.then")
	b.jump(head, then)
	b.cur = then
	b.stmt(x.Body, "")
	thenEnd := b.cur
	var elseEnd *Block
	hasElse := x.Else != nil
	if hasElse {
		els := b.newBlock("if.else")
		b.jump(head, els)
		b.cur = els
		b.stmt(x.Else, "")
		elseEnd = b.cur
	}
	join := b.newBlock("if.join")
	if !hasElse {
		b.jump(head, join)
	}
	b.jump(thenEnd, join)
	b.jump(elseEnd, join)
	b.cur = join
}

func (b *builder) forStmt(x *ast.ForStmt, label string) {
	if x.Init != nil {
		b.add(x.Init)
	}
	head := b.newBlock("for.head")
	b.jump(b.ensure(), head)
	if x.Cond != nil {
		head.Nodes = append(head.Nodes, x.Cond)
		b.g.Branches = append(b.g.Branches, Branch{Block: head, Kind: "for", Pos: x.For, Conds: []ast.Expr{x.Cond}})
	}
	body := b.newBlock("for.body")
	join := b.newBlock("for.join")
	b.jump(head, body)
	if x.Cond != nil {
		b.jump(head, join)
	}
	cont := head
	if x.Post != nil {
		post := b.newBlock("for.post")
		post.Nodes = append(post.Nodes, x.Post)
		b.jump(post, head)
		cont = post
	}
	b.frames = append(b.frames, frame{label: label, brk: join, cont: cont})
	b.cur = body
	b.stmt(x.Body, "")
	b.jump(b.cur, cont)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *builder) rangeStmt(x *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	b.jump(b.ensure(), head)
	head.Nodes = append(head.Nodes, x)
	b.g.Branches = append(b.g.Branches, Branch{Block: head, Kind: "range", Pos: x.For, Conds: []ast.Expr{x.X}})
	body := b.newBlock("range.body")
	join := b.newBlock("range.join")
	b.jump(head, body)
	b.jump(head, join)
	b.frames = append(b.frames, frame{label: label, brk: join, cont: head})
	b.cur = body
	b.stmt(x.Body, "")
	b.jump(b.cur, head)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *builder) switchStmt(x *ast.SwitchStmt, label string) {
	if x.Init != nil {
		b.add(x.Init)
	}
	if x.Tag != nil {
		b.add(x.Tag)
	}
	head := b.ensure()
	join := b.newBlock("switch.join")
	var conds []ast.Expr
	if x.Tag != nil {
		conds = append(conds, x.Tag)
	}
	type clause struct {
		blk *Block
		cc  *ast.CaseClause
	}
	var clauses []clause
	hasDefault := false
	for _, c := range x.Body.List {
		cc := c.(*ast.CaseClause)
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		blk := b.newBlock(kind)
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
			conds = append(conds, e)
		}
		b.jump(head, blk)
		clauses = append(clauses, clause{blk, cc})
	}
	b.g.Branches = append(b.g.Branches, Branch{Block: head, Kind: "switch", Pos: x.Switch, Conds: conds})
	if !hasDefault {
		b.jump(head, join)
	}
	b.frames = append(b.frames, frame{label: label, brk: join})
	for i, cl := range clauses {
		b.cur = cl.blk
		fellThrough := false
		for _, st := range cl.cc.Body {
			if bs, ok := st.(*ast.BranchStmt); ok && bs.Tok == token.FALLTHROUGH {
				fellThrough = true
			}
			b.stmt(st, "")
		}
		if fellThrough && i+1 < len(clauses) {
			b.jump(b.cur, clauses[i+1].blk)
			b.cur = nil
			continue
		}
		b.jump(b.cur, join)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *builder) typeSwitchStmt(x *ast.TypeSwitchStmt, label string) {
	if x.Init != nil {
		b.add(x.Init)
	}
	b.add(x.Assign)
	head := b.cur
	join := b.newBlock("switch.join")
	b.g.Branches = append(b.g.Branches, Branch{Block: head, Kind: "typeswitch", Pos: x.Switch, Conds: typeSwitchOperand(x)})
	hasDefault := false
	type clause struct {
		blk *Block
		cc  *ast.CaseClause
	}
	var clauses []clause
	for _, c := range x.Body.List {
		cc := c.(*ast.CaseClause)
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		blk := b.newBlock(kind)
		b.jump(head, blk)
		clauses = append(clauses, clause{blk, cc})
	}
	if !hasDefault {
		b.jump(head, join)
	}
	b.frames = append(b.frames, frame{label: label, brk: join})
	for _, cl := range clauses {
		b.cur = cl.blk
		for _, st := range cl.cc.Body {
			b.stmt(st, "")
		}
		b.jump(b.cur, join)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

// typeSwitchOperand extracts the asserted expression from `switch v :=
// x.(type)` or `switch x.(type)`.
func typeSwitchOperand(x *ast.TypeSwitchStmt) []ast.Expr {
	var e ast.Expr
	switch a := x.Assign.(type) {
	case *ast.ExprStmt:
		e = a.X
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			e = a.Rhs[0]
		}
	}
	if ta, ok := ast.Unparen(e).(*ast.TypeAssertExpr); ok {
		return []ast.Expr{ta.X}
	}
	return nil
}

func (b *builder) selectStmt(x *ast.SelectStmt, label string) {
	head := b.ensure()
	join := b.newBlock("select.join")
	b.g.Branches = append(b.g.Branches, Branch{Block: head, Kind: "select", Pos: x.Select})
	hasDefault := false
	type clause struct {
		blk *Block
		cc  *ast.CommClause
	}
	var clauses []clause
	for _, c := range x.Body.List {
		cc := c.(*ast.CommClause)
		kind := "select.case"
		if cc.Comm == nil {
			kind = "select.default"
			hasDefault = true
		}
		blk := b.newBlock(kind)
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.jump(head, blk)
		clauses = append(clauses, clause{blk, cc})
	}
	// A select without a default blocks until some case fires: there is
	// deliberately no head→join bypass edge, so "join reached" means "a
	// clause ran" in every downstream analysis.
	_ = hasDefault
	b.frames = append(b.frames, frame{label: label, brk: join})
	for _, cl := range clauses {
		b.cur = cl.blk
		for _, st := range cl.cc.Body {
			b.stmt(st, "")
		}
		b.jump(b.cur, join)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}
