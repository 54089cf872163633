package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"columbia/internal/analysis"
)

// LockOrder builds each package's lock graph and reports the three
// deadlock shapes a sharded-cache + supervisor + engine architecture can
// grow: re-acquiring a mutex already held (directly or through an
// in-package call), acquiring two mutexes in inconsistent orders on
// different paths (a cycle in the acquisition-order graph), and blocking
// on a channel operation — send, receive, select without default, range
// over a channel — while holding any lock, which couples the lock to
// every goroutine the channel talks to.
//
// The analysis is lexical per function with branch-merge (a lock held on
// every non-diverging arm stays held), treats `defer mu.Unlock()` as
// holding the lock to function end, and propagates may-acquire /
// may-block summaries over the in-package static callgraph to a fixed
// point. Lock identity is structural — "Type.field" for field mutexes,
// "pkg.var" for package-level ones, "func.name" for locals — so two
// *instances* of a type share an identity: what is ordered is the code
// path, not the runtime object. Function literals are analyzed as their
// own roots (they usually run on other goroutines); test files are
// exempt.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "flag inconsistent lock orders and locks held across channel operations",
	Run:  runLockOrder,
}

type lockID string

// heldInfo records one held lock during the lexical walk.
type heldInfo struct {
	pos  token.Pos
	read bool // held via RLock
}

type acquisition struct {
	id   lockID
	held []lockID // locks already held at this acquisition
	pos  token.Pos
}

type callSite struct {
	callee *types.Func
	held   []lockID
	pos    token.Pos
}

// funcLock is one analyzed unit (function declaration or literal).
type funcLock struct {
	fn       *types.Func // nil for function literals
	acquires []acquisition
	calls    []callSite
	blocks   bool // contains a blocking channel operation
}

type lockWalker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	fname string
	res   *funcLock
}

func runLockOrder(pass *analysis.Pass) error {
	decls := declIndex(pass.TypesInfo, pass.Files)
	var units []*funcLock
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			name := fd.Name.Name
			w := &lockWalker{pass: pass, decls: decls, fname: name, res: &funcLock{fn: fn}}
			w.stmts(fd.Body.List, map[lockID]heldInfo{})
			units = append(units, w.res)
			// Each function literal is its own root: it typically runs on
			// another goroutine, so it starts with nothing held.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					lw := &lockWalker{pass: pass, decls: decls, fname: name + ".func", res: &funcLock{}}
					lw.stmts(fl.Body.List, map[lockID]heldInfo{})
					units = append(units, lw.res)
					return false
				}
				return true
			})
		}
	}

	// Fixed point: what may each declared function acquire, and may it
	// block on a channel, through in-package static calls?
	mayAcquire := make(map[*types.Func]map[lockID]bool)
	mayBlock := make(map[*types.Func]bool)
	byFn := make(map[*types.Func]*funcLock)
	for _, u := range units {
		if u.fn == nil {
			continue
		}
		byFn[u.fn] = u
		set := make(map[lockID]bool)
		for _, a := range u.acquires {
			set[a.id] = true
		}
		mayAcquire[u.fn] = set
		mayBlock[u.fn] = u.blocks
	}
	for changed := true; changed; {
		changed = false
		for fn, u := range byFn {
			for _, c := range u.calls {
				for id := range mayAcquire[c.callee] {
					if !mayAcquire[fn][id] {
						mayAcquire[fn][id] = true
						changed = true
					}
				}
				if mayBlock[c.callee] && !mayBlock[fn] {
					mayBlock[fn] = true
					changed = true
				}
			}
		}
	}

	// Order edges: held → acquired, from direct acquisitions and from
	// calls that may acquire; calls are also where re-acquisition and
	// held-across-blocking diagnostics interprocedurally surface.
	edges := make(map[lockID]map[lockID]token.Pos)
	addEdge := func(from, to lockID, pos token.Pos) {
		if from == to {
			return
		}
		m := edges[from]
		if m == nil {
			m = make(map[lockID]token.Pos)
			edges[from] = m
		}
		if _, ok := m[to]; !ok {
			m[to] = pos
		}
	}
	for _, u := range units {
		for _, a := range u.acquires {
			for _, h := range a.held {
				addEdge(h, a.id, a.pos)
			}
		}
		for _, c := range u.calls {
			if len(c.held) == 0 {
				continue
			}
			callee := c.callee.Name()
			var acq []string
			for id := range mayAcquire[c.callee] {
				acq = append(acq, string(id))
			}
			sort.Strings(acq)
			for _, id := range acq {
				for _, h := range c.held {
					if h == lockID(id) {
						pass.Reportf(c.pos, "call to %s may re-acquire %s, already held here — a self-deadlock; release first, or justify with //detlint:allow lockorder <reason>", callee, id)
						continue
					}
					addEdge(h, lockID(id), c.pos)
				}
			}
			if mayBlock[c.callee] {
				pass.Reportf(c.pos, "call to %s may block on a channel while holding %s — the lock couples every peer of that channel; release first, or justify with //detlint:allow lockorder <reason>", callee, joinIDs(c.held))
			}
		}
	}

	reportOrderCycles(pass, edges)
	return nil
}

// reportOrderCycles finds cycles in the acquisition-order graph and
// reports each once, deterministically, at its lexically first edge.
func reportOrderCycles(pass *analysis.Pass, edges map[lockID]map[lockID]token.Pos) {
	nodes := make([]lockID, 0, len(edges))
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	succs := func(n lockID) []lockID {
		out := make([]lockID, 0, len(edges[n]))
		for s := range edges[n] {
			out = append(out, s)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	seen := make(map[string]bool)
	var stack []lockID
	onStack := make(map[lockID]int)
	done := make(map[lockID]bool)
	var dfs func(n lockID)
	dfs = func(n lockID) {
		onStack[n] = len(stack)
		stack = append(stack, n)
		for _, s := range succs(n) {
			if i, ok := onStack[s]; ok {
				cycle := append([]lockID(nil), stack[i:]...)
				key, pos := canonicalCycle(cycle, edges)
				if !seen[key] {
					seen[key] = true
					pass.Reportf(pos, "inconsistent lock acquisition order: %s — these locks are taken in conflicting orders on different paths, which deadlocks when the paths race; pick one global order, or justify with //detlint:allow lockorder <reason>", key)
				}
				continue
			}
			if !done[s] {
				dfs(s)
			}
		}
		stack = stack[:len(stack)-1]
		delete(onStack, n)
		done[n] = true
	}
	for _, n := range nodes {
		if !done[n] {
			dfs(n)
		}
	}
}

// canonicalCycle rotates the cycle to start at its smallest lock and
// renders it, returning the render and the smallest edge position in it.
func canonicalCycle(cycle []lockID, edges map[lockID]map[lockID]token.Pos) (string, token.Pos) {
	min := 0
	for i := range cycle {
		if cycle[i] < cycle[min] {
			min = i
		}
	}
	rot := append(append([]lockID(nil), cycle[min:]...), cycle[:min]...)
	parts := make([]string, 0, len(rot)+1)
	pos := token.NoPos
	for i, id := range rot {
		parts = append(parts, string(id))
		next := rot[(i+1)%len(rot)]
		if p, ok := edges[id][next]; ok && (pos == token.NoPos || p < pos) {
			pos = p
		}
	}
	parts = append(parts, string(rot[0]))
	return strings.Join(parts, " → "), pos
}

func joinIDs(ids []lockID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, ", ")
}

func snapshot(held map[lockID]heldInfo) []lockID {
	out := make([]lockID, 0, len(held))
	for id := range held {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func clone(held map[lockID]heldInfo) map[lockID]heldInfo {
	out := make(map[lockID]heldInfo, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// intersect keeps the locks held in every merged arm.
func intersect(sets []map[lockID]heldInfo) map[lockID]heldInfo {
	if len(sets) == 0 {
		return map[lockID]heldInfo{}
	}
	out := clone(sets[0])
	for _, s := range sets[1:] {
		for id := range out {
			if _, ok := s[id]; !ok {
				delete(out, id)
			}
		}
	}
	return out
}

// stmts walks a statement list threading the held set; the bool result
// reports divergence (return, branch out, terminal panic-like shape).
func (w *lockWalker) stmts(list []ast.Stmt, held map[lockID]heldInfo) (map[lockID]heldInfo, bool) {
	for _, s := range list {
		var div bool
		held, div = w.stmt(s, held)
		if div {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalker) stmt(s ast.Stmt, held map[lockID]heldInfo) (map[lockID]heldInfo, bool) {
	switch s := s.(type) {
	case nil:
		return held, false
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scan(r, held)
		}
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto leave the enclosing construct; treating them
		// as divergence keeps merges conservative.
		return held, true
	case *ast.DeferStmt:
		w.deferred(s.Call, held)
		return held, false
	case *ast.GoStmt:
		// The spawned call runs concurrently; only its argument
		// expressions evaluate here.
		for _, a := range s.Call.Args {
			w.scan(a, held)
		}
		return held, false
	case *ast.SendStmt:
		w.scan(s.Chan, held)
		w.scan(s.Value, held)
		w.blockingOp(s.Arrow, "channel send", held)
		return held, false
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		w.scan(s.Cond, held)
		var arms []map[lockID]heldInfo
		thenH, thenDiv := w.stmt(s.Body, clone(held))
		if !thenDiv {
			arms = append(arms, thenH)
		}
		if s.Else != nil {
			elseH, elseDiv := w.stmt(s.Else, clone(held))
			if !elseDiv {
				arms = append(arms, elseH)
			}
		} else {
			arms = append(arms, held)
		}
		if len(arms) == 0 {
			return held, true
		}
		return intersect(arms), false
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scan(s.Cond, held)
		}
		bodyH, bodyDiv := w.stmts(s.Body.List, clone(held))
		if s.Post != nil {
			w.stmt(s.Post, bodyH)
		}
		if s.Cond == nil && !bodyDiv {
			// for {} with a non-diverging body never falls out.
			return bodyH, true
		}
		if bodyDiv {
			return held, false // zero iterations is always possible
		}
		return intersect([]map[lockID]heldInfo{held, bodyH}), false
	case *ast.RangeStmt:
		w.scan(s.X, held)
		if t := w.pass.TypesInfo.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				w.blockingOp(s.For, "range over channel", held)
			}
		}
		bodyH, bodyDiv := w.stmts(s.Body.List, clone(held))
		if bodyDiv {
			return held, false
		}
		return intersect([]map[lockID]heldInfo{held, bodyH}), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scan(s.Tag, held)
		}
		return w.clauses(s.Body, held, false)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		return w.clauses(s.Body, held, false)
	case *ast.SelectStmt:
		return w.selectStmt(s, held)
	default:
		// Assignments, declarations, expression statements, inc/dec:
		// evaluate contained expressions in place.
		w.scan(s, held)
		return held, false
	}
}

// clauses merges a switch body's case clauses; select handles its own.
func (w *lockWalker) clauses(body *ast.BlockStmt, held map[lockID]heldInfo, _ bool) (map[lockID]heldInfo, bool) {
	var arms []map[lockID]heldInfo
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			w.scan(e, held)
		}
		h, div := w.stmts(cc.Body, clone(held))
		if !div {
			arms = append(arms, h)
		}
	}
	if !hasDefault {
		arms = append(arms, held)
	}
	if len(arms) == 0 {
		return held, true
	}
	return intersect(arms), false
}

func (w *lockWalker) selectStmt(s *ast.SelectStmt, held map[lockID]heldInfo) (map[lockID]heldInfo, bool) {
	hasDefault := false
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		// A select without default blocks; with one it polls.
		w.blockingOp(s.Select, "select", held)
	}
	var arms []map[lockID]heldInfo
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		h := clone(held)
		switch cm := cc.Comm.(type) {
		case *ast.SendStmt:
			w.scan(cm.Chan, h)
			w.scan(cm.Value, h)
		case *ast.ExprStmt:
			if ue, ok := ast.Unparen(cm.X).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
				w.scan(ue.X, h) // the operand; the receive is the select's
			} else {
				w.scan(cm.X, h)
			}
		case *ast.AssignStmt:
			for _, l := range cm.Lhs {
				w.scan(l, h)
			}
			for _, r := range cm.Rhs {
				if ue, ok := ast.Unparen(r).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
					w.scan(ue.X, h)
				} else {
					w.scan(r, h)
				}
			}
		}
		h, div := w.stmts(cc.Body, h)
		if !div {
			arms = append(arms, h)
		}
	}
	if len(arms) == 0 {
		return held, true
	}
	return intersect(arms), false
}

// scan visits the expressions of a node in evaluation-ish (pre) order,
// classifying calls and flagging blocking receives; nested function
// literals are separate analysis roots and are not entered.
func (w *lockWalker) scan(n ast.Node, held map[lockID]heldInfo) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch x := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.blockingOp(x.OpPos, "channel receive", held)
			}
		case *ast.CallExpr:
			w.call(x, held, false)
		}
		return true
	})
}

// blockingOp records a blocking channel operation and reports it when any
// lock is held.
func (w *lockWalker) blockingOp(pos token.Pos, what string, held map[lockID]heldInfo) {
	w.res.blocks = true
	if len(held) > 0 {
		w.pass.Reportf(pos, "blocking %s while holding %s — a lock held across a channel operation couples it to every peer goroutine and can deadlock; release first, or justify with //detlint:allow lockorder <reason>", what, joinIDs(snapshot(held)))
	}
}

// call classifies one call: mutex operation (mutating held), in-package
// static call (recorded for the interprocedural pass), or neither.
func (w *lockWalker) call(call *ast.CallExpr, held map[lockID]heldInfo, deferred bool) {
	if op, id, ok := w.mutexOp(call); ok {
		switch op {
		case "Lock", "RLock":
			if deferred {
				return // defer mu.Lock() is nonsense; don't model it
			}
			if h, dup := held[id]; dup && (op == "Lock" || !h.read) {
				w.pass.Reportf(call.Pos(), "%s of %s, which is already held (acquired at %s) — a self-deadlock; release first, or justify with //detlint:allow lockorder <reason>", op, id, w.pass.Fset.Position(h.pos))
				return
			}
			if _, dup := held[id]; dup {
				return // RLock after RLock: shared re-entry, not modeled
			}
			w.res.acquires = append(w.res.acquires, acquisition{id: id, held: snapshot(held), pos: call.Pos()})
			held[id] = heldInfo{pos: call.Pos(), read: op == "RLock"}
		case "Unlock", "RUnlock":
			if deferred {
				return // critical section extends to function end
			}
			delete(held, id)
		}
		return
	}
	if fn := callee(w.pass.TypesInfo, call); fn != nil {
		if _, ok := w.decls[fn]; ok {
			w.res.calls = append(w.res.calls, callSite{callee: fn, held: snapshot(held), pos: call.Pos()})
		}
	}
}

// deferred evaluates a deferred call's arguments now and models the call
// itself as running with the locks held here — conservative, and exactly
// right for the cleanup-deadlock shape (defer helper() after defer
// mu.Unlock() runs helper before the unlock).
func (w *lockWalker) deferred(call *ast.CallExpr, held map[lockID]heldInfo) {
	for _, a := range call.Args {
		w.scan(a, held)
	}
	w.call(call, held, true)
}

// mutexOp matches a call to sync.(*Mutex/RWMutex/Locker) Lock family
// methods and derives the lock's structural identity.
func (w *lockWalker) mutexOp(call *ast.CallExpr) (op string, id lockID, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, _ := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	id = w.lockID(sel)
	if id == "" {
		return "", "", false
	}
	return fn.Name(), id, true
}

// lockID names a lock structurally: "Type.field" for field mutexes
// (including embedded promotion), "pkg.var" for package-level ones,
// "func.name" for locals and parameters. Unresolvable shapes return ""
// and are ignored rather than misattributed.
func (w *lockWalker) lockID(sel *ast.SelectorExpr) lockID {
	if s := w.pass.TypesInfo.Selections[sel]; s != nil && len(s.Index()) > 1 {
		// t.Lock() promoted through an embedded mutex field.
		t := derefType(s.Recv())
		if name := typeName(t); name != "" {
			if st, ok := t.Underlying().(*types.Struct); ok && s.Index()[0] < st.NumFields() {
				return lockID(name + "." + st.Field(s.Index()[0]).Name())
			}
		}
		return ""
	}
	return w.exprLockID(sel.X)
}

func (w *lockWalker) exprLockID(e ast.Expr) lockID {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj, _ := w.pass.TypesInfo.Uses[x].(*types.Var)
		if obj == nil {
			return ""
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return lockID(obj.Pkg().Name() + "." + obj.Name())
		}
		return lockID(w.fname + "." + obj.Name())
	case *ast.SelectorExpr:
		if s := w.pass.TypesInfo.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			if name := typeName(derefType(s.Recv())); name != "" {
				return lockID(name + "." + s.Obj().Name())
			}
			return ""
		}
		if obj, ok := w.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && obj.Pkg() != nil {
			return lockID(obj.Pkg().Name() + "." + obj.Name())
		}
		return ""
	case *ast.IndexExpr:
		return w.exprLockID(x.X)
	case *ast.StarExpr:
		return w.exprLockID(x.X)
	}
	return ""
}

func typeName(t types.Type) string {
	switch n := t.(type) {
	case *types.Named:
		return n.Obj().Name()
	case *types.Alias:
		return n.Obj().Name()
	}
	return ""
}
